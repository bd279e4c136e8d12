"""Super-standard inclusion matrices and the experimental evidence tooling
around them.

The stacked inclusion matrix of super-standard subsets into standard
subsets is conjectured to be full rank with index 1 whenever both size
parameters stay below (n+1)/3 (and hence unimodular when square).  Nothing
in the main pipeline depends on this; these checks gather evidence that the
square p_tilde(n, s, s) are a second family of E matrices.
"""

from __future__ import annotations

from math import comb, prod
from typing import NamedTuple

from .exact import IntMatrix, smith_normal_form
from .proof import _inclusion, d_matrix, w_matrix
from .scheme import ParameterError, _refuse_oversized, in_range
from .subsets import (STANDARD, SUPER_STANDARD, enumerate_subsets,
                      is_boundary, mu, phi)


def w_tilde(n: int, i: int, j: int) -> IntMatrix:
    """Inclusion matrix of super-standard i-subsets into standard j-subsets.
    Refuses like w_matrix(n, i, j), whose rows include these rows."""
    if n < 0 or i < 0 or j < 0:
        raise ParameterError("need n, i, j >= 0")
    _refuse_oversized(f"Wtilde({n},{i},{j})", mu(n, i), mu(n, j))
    return _inclusion(enumerate_subsets(n, i, SUPER_STANDARD),
                      enumerate_subsets(n, j, STANDARD))


def p_tilde(n: int, i: int, j: int) -> IntMatrix:
    """Inclusion matrix of super-standard subsets of size <= i (ascending
    size, then lexicographic) into standard j-subsets: the stack of
    w_tilde(n, s, j) for s = 0..i.

    Refuses with SizeCapExceeded, before enumerating, when the standard
    subsets of size <= i (a superset of the rows: their count is
    sum_{s <= i} mu(n, s) = C(n, min(i, (n+1)/2))) or the standard
    j-subsets (the columns) number more than DEFAULT_CAP.
    """
    if n < 0 or i < 0 or j < 0:
        raise ParameterError("need n, i, j >= 0")
    _refuse_oversized(f"Ptilde({n},{i},{j})", comb(n, min(i, (n + 1) // 2)),
                      mu(n, j))
    return _inclusion(enumerate_subsets(n, i, SUPER_STANDARD, up_to=True),
                      enumerate_subsets(n, j, STANDARD))


class ConjectureReport(NamedTuple):
    """Measured shape/rank/index of one stacked matrix versus the conjecture."""

    n: int
    i: int
    j: int
    rows: int
    cols: int
    expected_rows: int     # mu_i(n)
    expected_cols: int     # mu_j(n)
    rank: int
    index: int
    unimodular_when_square: bool
    in_hypothesis: bool
    holds: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return self._asdict()


def check_conjecture(n: int, i: int, j: int) -> ConjectureReport:
    """Measure p_tilde(n, i, j) against the full-rank/index-1 claim.

    Out-of-hypothesis parameters are reported as such rather than rejected;
    the stated range is i <= (n+1)/3 and j <= (n+1)/3.
    """
    m = p_tilde(n, i, j)
    snf = smith_normal_form(m)
    idx = prod(snf.invariant_factors, start=1)
    exp_rows, exp_cols = mu(n, i), mu(n, j)
    in_hyp = in_range(n, max(i, j))
    full_rank = snf.rank == min(m.rows, m.cols)
    square = m.rows == m.cols
    holds = (m.rows == exp_rows and m.cols == exp_cols
             and full_rank and idx == 1)
    note = "" if in_hyp else f"outside hypothesis: max(i, j) > (n+1)/3 for n={n}"
    return ConjectureReport(n, i, j, m.rows, m.cols, exp_rows, exp_cols,
                            snf.rank, idx,
                            square and holds, in_hyp, holds, note)


def check_simpler_lemma(n: int, i: int, j: int) -> bool:
    """Exact identity p_tilde(i,i) W_{i,j} == D_{i,j} p_tilde(j,j).

    Row orders are compatible by construction: both stacks list subsets by
    ascending size then lexicographically, so the initial rows agree.
    """
    if i > j:
        raise ParameterError("need i <= j")
    pii = p_tilde(n, i, i)
    pjj = p_tilde(n, j, j)
    if pii.rows != mu(n, i) or pjj.rows != mu(n, j):
        return False
    return pii @ w_matrix(n, i, j) == d_matrix(n, i, j) @ pjj


def _boundary_split(labels) -> tuple[list[int], list[int]]:
    """The positions of the boundary subsets among labels, and the rest."""
    boundary, interior = [], []
    for t, s in enumerate(labels):
        (boundary if is_boundary(s) else interior).append(t)
    return boundary, interior


class BoundarySplit(NamedTuple):
    """p_tilde(n, i, j) permuted into boundary-first order, plus the two
    structural checks that make the inductive decomposition work."""

    n: int
    i: int
    j: int
    boundary_block: IntMatrix        # boundary rows x boundary cols
    boundary_interior: IntMatrix     # boundary rows x interior cols
    interior_boundary: IntMatrix     # interior rows x boundary cols
    interior_block: IntMatrix        # interior rows x interior cols
    zero_block_ok: bool              # boundary x interior block is zero
    interior_matches: bool           # interior block == p_tilde(n-1, i, j)


def boundary_interior_split(n: int, i: int, j: int) -> BoundarySplit:
    """Split p_tilde(n, i, j) along the boundary/interior dichotomy.

    Subtracting 1 from every element maps interior subsets of {1..n} to
    subsets of {1..n-1} preserving size, order and inclusion, so the
    interior block should literally equal p_tilde(n-1, i, j).
    """
    m = p_tilde(n, i, j)
    brows, irows = _boundary_split(m.row_labels)
    bcols, icols = _boundary_split(m.col_labels)
    bb = m.submatrix(brows, bcols)
    bi = m.submatrix(brows, icols)
    ib = m.submatrix(irows, bcols)
    ii = m.submatrix(irows, icols)
    zero_ok = all(v == 0 for row in bi.data for v in row)
    inner = p_tilde(n - 1, i, j)
    matches = (ii.shape() == inner.shape() and ii.data == inner.data)
    return BoundarySplit(n, i, j, bb, bi, ib, ii, zero_ok, matches)


def phi_boundary_column_match(n: int, i: int, j: int) -> bool:
    """Push the boundary block of p_tilde(n, i, j) through phi on both axes
    and compare against p_tilde(n-1, i-1, j-1).

    Columns indexed by a subset containing the element 2 must map to
    exactly the same column vector; other columns are allowed to differ.
    """
    if i < 1 or j < 1:
        raise ParameterError("need i, j >= 1")
    m = p_tilde(n, i, j)
    rows, cols = m.row_labels, m.col_labels
    brows, bcols = _boundary_split(rows)[0], _boundary_split(cols)[0]
    target = p_tilde(n - 1, i - 1, j - 1)
    trow_pos = {s: t for t, s in enumerate(target.row_labels)}
    tcol_pos = {s: t for t, s in enumerate(target.col_labels)}
    row_map = [trow_pos.get(phi(rows[t])) for t in brows]
    if None in row_map:
        return False
    for c in bcols:
        if 2 in cols[c]:
            tc = tcol_pos.get(phi(cols[c]))
            if tc is None or any(m.data[t][c] != target.data[tr][tc]
                                 for t, tr in zip(brows, row_map)):
                return False
    return True
