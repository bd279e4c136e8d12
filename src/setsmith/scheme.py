"""Subset intersection matrices and the small-block reduction of their
Smith groups.

The pipeline: conjugating by the inclusion-basis matrix P turns any integer
combination of the intersection matrices into a block-triangular matrix
whose blocks are multiples of the standard-inclusion matrices W_{i,j};
those blocks are simultaneously diagonalizable by a family of unimodular
matrices E_s, leaving small square blocks M_s whose diagonal forms, repeated
with explicit multiplicities, assemble the Smith group of the full matrix.

Only the M_s blocks, read off closed formulas, and their assembly are here:
the group needs neither P, W nor E.  Those proof objects are in
setsmith.proof and the dense matrices in setsmith.oracle, and both load on
first use, so the block reduction starts without compiling them.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import index, mul
from typing import NamedTuple

from .exact import (AbelianGroup, ExactError, IntMatrix, _list_factors,
                    group_from_diagonal)
from .subsets import binomial, mu


class ParameterError(ExactError):
    """Scheme parameters outside the supported range."""


# Largest side of a dense matrix built on request: brute_force_group's
# default column cap, and where the scheme and super-standard matrix
# builders refuse, before they enumerate a single subset.
DEFAULT_CAP = 3000


class SizeCapExceeded(ExactError):
    """The requested dense matrix is larger than the configured cap."""


def _refuse_oversized(what: str, rows: int, cols: int,
                      cap: int = DEFAULT_CAP) -> None:
    if max(rows, cols) > cap:
        raise SizeCapExceeded(
            f"{what} would be {rows}x{cols}, above the cap of {cap} "
            "rows or columns")


def _integer(value, what: str) -> int:
    """value as a Python int, if it is an integer of any type (numpy's
    included); a float, even a whole one, is refused, not rounded."""
    try:
        return index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, got {value!r}") from None


class _SchemeParamsFields(NamedTuple):
    n: int
    kr: int
    kc: int
    ell: int


class SchemeParams(_SchemeParamsFields):
    """Parameters (n, kr, kc, ell): rows are kr-subsets of {1..n}, columns
    kc-subsets, incidence means intersection of size exactly ell."""

    __slots__ = ()

    def __new__(cls, n, kr, kc, ell):
        self = super().__new__(cls, *(_integer(v, name) for v, name in
                                      zip((n, kr, kc, ell), cls._fields)))
        if not (0 <= ell <= kr <= kc <= n):
            raise ParameterError(
                f"need 0 <= ell <= kr <= kc <= n, got {self}")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def square(self) -> bool:
        return self.kr == self.kc


def degree(n: int, k: int, ell: int) -> int:
    """Common row sum of the square intersection matrix: C(n-k,k-ell)*C(k,ell)."""
    if not (0 <= ell <= k <= n):
        raise ParameterError("need 0 <= ell <= k <= n")
    return comb(n - k, k - ell) * comb(k, ell)


def unit_coeffs(p: SchemeParams) -> tuple[int, ...]:
    """Coefficient vector selecting the single matrix A_{n,kr,kc,ell}."""
    out = [0] * (p.kr + 1)
    out[p.ell] = 1
    return tuple(out)


def c_coeff(i: int, j: int, p: SchemeParams) -> int:
    """C(kr-i, ell-i) * C(n-kr-j+i, kc-ell-j+i)."""
    return (binomial(p.kr - i, p.ell - i)
            * binomial(p.n - p.kr - j + i, p.kc - p.ell - j + i))


def in_range(n: int, k: int) -> bool:
    """Whether n >= 3k - 1, where the W blocks on subsets of size at most k
    diagonalize together: the range of e_matrices and of ms_matrices (k = kc)."""
    return 3 * k <= n + 1


# ---------------------------------------------------------------------------
# The M_s blocks and Smith group assembly


class MsMatrix(NamedTuple):
    """One reduced block: its index s, the (kr-s+1) x (kc-s+1) matrix, and
    how many times its diagonal form repeats in the full diagonal form."""

    s: int
    entries: IntMatrix
    multiplicity: int


class SpectrumEntry(NamedTuple):
    eigenvalue: int
    multiplicity: int


class BlockReport(NamedTuple):
    s: int
    matrix: IntMatrix
    multiplicity: int
    delta: tuple[int, ...]   # diagonal-form entries incl. trailing zeros
    rank: int


class SmithGroupResult(NamedTuple):
    params: SchemeParams
    coeffs: tuple[int, ...]
    lam: int
    group: AbelianGroup
    blocks: tuple[BlockReport, ...]


def _check_coeffs(p: SchemeParams, coeffs,
                  lam: int) -> tuple[tuple[int, ...], int]:
    """The coefficients and the shift as Python ints, once checked."""
    if coeffs is None:
        coeffs = unit_coeffs(p)
    coeffs = tuple(_integer(b, "each coefficient") for b in coeffs)
    lam = _integer(lam, "the shift lambda")
    if len(coeffs) != p.kr + 1:
        raise ParameterError(
            f"need kr+1 = {p.kr + 1} coefficients b_0..b_kr, got {len(coeffs)}")
    if lam and not p.square:
        raise ParameterError(
            "a diagonal shift is only defined for square parameters")
    return coeffs, lam


def block_multiplicity(n: int, s: int) -> int:
    """C(n,s) - 2C(n,s-1) + C(n,s-2) = mu_s - mu_{s-1}."""
    return binomial(n, s) - 2 * binomial(n, s - 1) + binomial(n, s - 2)


def _pascal(m: int) -> list[list[int]]:
    """pascal[b][a] = C(a, b) for a, b <= m: each row sums the one above."""
    pascal = [[1] * (m + 1)]
    for _ in range(m):
        pascal.append([0, *accumulate(pascal[-1][:-1])])
    return pascal


def _combined_f(p: SchemeParams, coeffs, pascal) -> list[list[int]]:
    """table[i][j] = sum_l b_l f_i(j), f taken at ell = l, for i <= kr and
    j <= kc: the coefficient of W_{i,j} in the conjugated triangular form of
    the combination.  Zero below the diagonal, where W_{i,j} vanishes.
    f_coeff's alternating sum runs once per row, on g[v][j] = sum_l b_l
    c_v(j), the product of tables of C(kr-v, kr-l) and b_l C(n-kr-d,
    kc-l-d), d = j - v (c_coeff)."""
    n, kr, kc, _ = p
    terms = [(ell, b) for ell, b in enumerate(coeffs) if b]
    high = [[b * binomial(n - kr - d, kc - ell - d) for ell, b in terms]
            for d in range(kc + 1)]
    low = [[pascal[kr - ell][kr - v] for ell, _ in terms]
           for v in range(kr + 1)]
    g = [[sum(map(mul, x, h)) for h in high[:kc + 1 - v]]  # g[v][j - v]
         for v, x in enumerate(low)]
    table = []
    for i in range(kr + 1):
        row = [0] * (kc + 1 - i)  # entries i..kc
        for v in range(i + 1):
            c = (-1) ** (i - v) * pascal[v][i]
            row = [x + c * y for x, y in zip(row, g[v][i - v:])]
        table.append([0] * i + row)
    return table


def _blocks(p: SchemeParams, coeffs, lam: int) -> list[MsMatrix]:
    """ms_matrices on coefficients and a shift that _check_coeffs passed."""
    if not in_range(p.n, p.kc):
        raise ParameterError(
            f"the block reduction assumes n >= 3*kc - 1 (here n >= {3 * p.kc - 1}); "
            f"for n={p.n} use the brute-force oracle instead")
    table = _combined_f(p, coeffs, pascal := _pascal(p.kc))
    for i in range(p.kr + 1):  # C(i-s, i-s) = 1: every M_s has the shift
        table[i][i] -= lam
    blocks = []
    for s in range(p.kr + 1):
        data = [[c * x for c, x in zip(pascal[d], row[s:])]
                for d, row in enumerate(table[s:])]
        blocks.append(MsMatrix(s, IntMatrix._keep(data, p.kc + 1 - s),
                               block_multiplicity(p.n, s)))
    return blocks


def ms_matrices(p: SchemeParams, coeffs=None, lam: int = 0) -> list[MsMatrix]:
    """The blocks M_s, entries -lam*delta_{ij} + C(j-s,i-s) * sum_l b_l f_i(j)
    for s <= i <= kr, s <= j <= kc (upper triangular when square), s = 0..kr.
    Refused below n = 3*kc - 1, where multiplicities can go negative."""
    return _blocks(p, *_check_coeffs(p, coeffs, lam))


def ms_matrix(s: int, p: SchemeParams, coeffs=None, lam: int = 0) -> MsMatrix:
    """The block M_s of ms_matrices."""
    if not 0 <= s <= p.kr:
        raise ParameterError(f"need 0 <= s <= kr, got s={s}")
    return ms_matrices(p, coeffs, lam)[s]


def smith_group(p: SchemeParams, coeffs=None, lam: int = 0) -> SmithGroupResult:
    """Smith group of sum_l b_l A_{n,kr,kc,l} - lam*I via the M_s blocks.

    Requires n >= 3*kc - 1, the range where the W blocks are known to be
    simultaneously diagonalizable.  The group does not depend on which
    unimodular E family diagonalizes them, so none is built here;
    e_matrices builds and validates one on its own.
    """
    coeffs, lam = _check_coeffs(p, coeffs, lam)
    blocks = []
    entries: list[tuple[int, int]] = []
    used_rank = 0
    for m in _blocks(p, coeffs, lam):
        rows, cols = m.entries.shape()
        diag = _list_factors(m.entries.data, rows, cols)
        rank = len(diag)
        delta = tuple(diag) + (0,) * (min(rows, cols) - rank)
        blocks.append(BlockReport(m.s, m.entries, m.multiplicity, delta, rank))
        entries.extend((d, m.multiplicity) for d in diag)
        used_rank += rank * m.multiplicity
    free_rank = comb(p.n, p.kc) - used_rank
    entries.append((0, free_rank))
    return SmithGroupResult(p, coeffs, lam, group_from_diagonal(entries),
                            tuple(blocks))


def diagonal_form_entries(result: SmithGroupResult) -> list[tuple[int, int]]:
    """Pooled (entry, multiplicity) pairs of the assembled diagonal form,
    in block order; multiplicities already folded in."""
    return [(d, b.multiplicity) for b in result.blocks for d in b.delta]


def eigenvalues(p: SchemeParams, coeffs=None, lam: int = 0) -> list[SpectrumEntry]:
    """Spectrum sum_l b_l f_i(i) - lam with multiplicity mu_i, i = 0..k: the
    corner entry of each M_i.  One entry per i, even where two blocks share
    an eigenvalue: entry i is that of the i-th eigenspace, and closed forms
    such as Eberlein's are matched index by index (the CLI merges them)."""
    if not p.square:
        raise ParameterError("eigenvalues need square parameters kr == kc")
    return [SpectrumEntry(m.entries.data[0][0], mu(p.n, m.s))
            for m in ms_matrices(p, coeffs, lam)]
