"""Subset intersection matrices and the small-block reduction of their
Smith groups.

The pipeline: conjugating by the inclusion-basis matrix P turns any integer
combination of the intersection matrices into a block-triangular matrix
whose blocks are multiples of the standard-inclusion matrices W_{i,j};
those blocks are simultaneously diagonalizable by a family of unimodular
matrices E_s, leaving small square blocks M_s whose diagonal forms, repeated
with explicit multiplicities, assemble the Smith group of the full matrix.
"""

from __future__ import annotations

import threading
from math import comb, prod
from typing import TYPE_CHECKING, NamedTuple

from .exact import (_INT64_CEILING, AbelianGroup, ConstructionError,
                    ExactError, IntMatrix, _product, group_from_diagonal,
                    smith_normal_form, unimodular_completion)
from .subsets import STANDARD, binomial, enumerate_subsets, mu

if TYPE_CHECKING:
    import numpy as np


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
        self = super().__new__(cls, n, kr, kc, ell)
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


def _meets(rows, cols) -> np.ndarray:
    """|a & b| for every subset a in rows and b in cols (all of one size),
    as int16: the rows of a 0/1 membership table (element x column) summed
    over the elements of a.  Shorter rows are padded with 0, whose row in
    the table is zero."""
    import numpy as np
    width = max(map(len, rows), default=0)
    r = np.array([a + (0,) * (width - len(a)) for a in rows], dtype=np.intp)
    top = max((s[-1] for s in (*rows, *cols) if s), default=0)
    member = np.zeros((top + 1, len(cols)), dtype=np.int16)
    member[np.array(cols, dtype=np.intp), np.arange(len(cols))[:, None]] = 1
    sizes = np.zeros((len(rows), len(cols)), dtype=np.int16)
    for t in range(width):
        sizes += member[r[:, t]]
    return sizes


def _scheme_array(p: SchemeParams, coeffs=None, lam: int = 0,
                  cap: int = DEFAULT_CAP) -> np.ndarray:
    """The dense matrix of sum_l b_l A_{n,kr,kc,l} - lam*I as an array,
    rows kr-subsets and columns kc-subsets in lexicographic order: int64
    when max|b_l| + |lam| < 2**62, so that every entry is below 2**62, and
    otherwise dtype object, holding exact Python ints.  Refuses with
    SizeCapExceeded, before enumerating, a side above cap."""
    import numpy as np
    coeffs = _check_coeffs(p, coeffs, lam)
    rows = comb(p.n, p.kr)
    _refuse_oversized(f"sum_l b_l A({p.n},{p.kr},{p.kc},l)", rows,
                      comb(p.n, p.kc), cap)
    sizes = _meets(enumerate_subsets(p.n, p.kr), enumerate_subsets(p.n, p.kc))
    wide = max(map(abs, coeffs)) + abs(lam) >= _INT64_CEILING
    a = np.array(coeffs, dtype=object if wide else np.int64)[sizes]
    if lam:
        a[np.arange(rows), np.arange(rows)] -= lam
    return a


def intersection_matrix(p: SchemeParams) -> IntMatrix:
    """0/1 matrix with entry 1 iff |A & B| == ell, rows kr-subsets, cols
    kc-subsets, both in lexicographic order."""
    return scheme_element_matrix(p, unit_coeffs(p))


def scheme_element_matrix(p: SchemeParams, coeffs=None, lam: int = 0) -> IntMatrix:
    """Dense matrix of sum_l b_l A_{n,kr,kc,l} - lam*I."""
    a = _scheme_array(p, coeffs, lam)
    return IntMatrix(a, row_labels=enumerate_subsets(p.n, p.kr),
                     col_labels=enumerate_subsets(p.n, p.kc))


def _inclusion(rows, cols) -> IntMatrix:
    """Labelled 0/1 matrix, 1 where the row subset is inside the column one."""
    import numpy as np
    inside = _meets(rows, cols) == np.array([len(a) for a in rows])[:, None]
    return IntMatrix(inside.astype(np.int64), row_labels=rows, col_labels=cols)


def bier_p(n: int, k: int) -> IntMatrix:
    """Inclusion matrix of standard (<= k)-subsets into unrestricted
    k-subsets: rows are the k-subsets, columns the standard subsets of size
    at most k, with a 1 where the column subset is contained in the row.
    Square and unimodular once n >= 2k - 1."""
    if not 0 <= k <= n:
        raise ParameterError("need 0 <= k <= n")
    _refuse_oversized(f"P({n},{k})", comb(n, k),
                      sum(mu(n, s) for s in range(k + 1)))
    return _inclusion(enumerate_subsets(n, k, STANDARD, up_to=True),
                      enumerate_subsets(n, k)).transpose()


def w_matrix(n: int, i: int, j: int) -> IntMatrix:
    """Inclusion matrix of standard i-subsets into standard j-subsets.

    The identity for i == j, the zero matrix for i > j.
    """
    if n < 0 or i < 0 or j < 0:
        raise ParameterError("need n, i, j >= 0")
    _refuse_oversized(f"W({n},{i},{j})", mu(n, i), mu(n, j))
    return _inclusion(enumerate_subsets(n, i, STANDARD),
                      enumerate_subsets(n, j, STANDARD))


def c_coeff(i: int, j: int, p: SchemeParams) -> int:
    """C(kr-i, ell-i) * C(n-kr-j+i, kc-ell-j+i)."""
    return (binomial(p.kr - i, p.ell - i)
            * binomial(p.n - p.kr - j + i, p.kc - p.ell - j + i))


def f_coeff(i: int, j: int, p: SchemeParams) -> int:
    """Alternating-sum transform of c_coeff: the block coefficient of W_{i,j}
    in the conjugated triangular form."""
    return sum((-1) ** (i + v) * comb(i, v) * c_coeff(v, j, p)
               for v in range(i + 1))


def in_range(n: int, k: int) -> bool:
    """Whether n >= 3k - 1, where the W blocks on subsets of size at most k
    diagonalize together: the range of e_matrices and of ms_matrices (k = kc)."""
    return 3 * k <= n + 1


def _d_pairs(n: int, i: int, j: int) -> list[tuple[int, int]]:
    """(C(j-s, i-s), mu_s - mu_{s-1}) for s = 0..i, with mu_{-1} = 0."""
    return [(binomial(j - s, i - s), mu(n, s) - (mu(n, s - 1) if s else 0))
            for s in range(i + 1)]


def d_diag(n: int, i: int, j: int) -> list[tuple[int, int]]:
    """Diagonal entries of the diagonal form of W_{i,j} as (entry, multiplicity):
    C(j-s, i-s) with multiplicity mu_s - mu_{s-1} for s = 0..i, and zeros
    padding out the rectangular mu_i x mu_j shape."""
    if not (0 <= i <= j and in_range(n, j)):
        raise ParameterError(
            f"diagonal form of W_{{{i},{j}}} needs 0 <= i <= j <= (n+1)/3, "
            f"got n={n}, i={i}, j={j}")
    return _d_pairs(n, i, j) + [(0, mu(n, j) - mu(n, i))]


def d_prime_entries(n: int, i: int, j: int) -> list[int]:
    """Flat length-mu_i diagonal of the square form D'_{i,j} (no zero columns)."""
    return [d for d, m in d_diag(n, i, j)[:-1] for _ in range(m)]


def d_matrix(n: int, i: int, j: int) -> IntMatrix:
    """The mu_i x mu_j rectangular diagonal matrix D_{i,j}."""
    return IntMatrix.diagonal(d_prime_entries(n, i, j), mu(n, i), mu(n, j))


def d_product(n: int, i: int, j: int) -> int:
    """prod C(j-s, i-s)^(mu_s - mu_{s-1}): the divisor bound for the index
    of W_{i,j}.  Unlike d_diag it takes any 0 <= i <= j whose exponents are
    all nonnegative (every 2j + i <= n among them), as the stacked-matrix
    index facts need it beyond d_diag's range."""
    if not (0 <= i <= j and n >= 0):
        raise ParameterError(f"d_product needs 0 <= i <= j and n >= 0, "
                             f"got n={n}, i={i}, j={j}")
    pairs = _d_pairs(n, i, j)
    if any(m < 0 for _, m in pairs):
        raise ParameterError(
            f"d_product(n={n}, i={i}, j={j}) has a negative exponent "
            "mu_s - mu_{s-1}: mu(n, s) decreases there")
    return prod(d ** m for d, m in pairs)


# ---------------------------------------------------------------------------
# The unimodular E family diagonalizing all W blocks at once

_E_CACHE: dict[int, list[IntMatrix]] = {}
_E_LOCK = threading.Lock()


def _extend_recursive(n: int, es: list[IntMatrix], k_max: int) -> None:
    import numpy as np
    while len(es) <= k_max:
        s = len(es) - 1
        ew = _product(es[s], w_matrix(n, s, s + 1))
        d = np.array(d_prime_entries(n, s, s + 1), dtype=ew.dtype)[:, None]
        if (ew % d).any():
            raise ConstructionError(
                f"row scaling of E_{s} W_{{{s},{s + 1}}} is not exact "
                f"at n={n}; the diagonalization guarantee is violated")
        es.append(unimodular_completion(IntMatrix(ew // d)))


def e_matrices(n: int, k_max: int) -> list[IntMatrix]:
    """The unimodular mu_s x mu_s matrices E_0..E_{k_max} with
    E_i W_{i,j} = D_{i,j} E_j, built by exact row scaling plus unimodular
    completion and cached per n.  (The super-standard p_tilde(n, s, s) are
    conjectured to be another such family; see superstandard.)"""
    if n < 0 or k_max < 0:
        raise ParameterError("n and k_max must be nonnegative")
    if not in_range(n, k_max):
        raise ParameterError(
            f"the E construction needs k_max <= (n+1)/3, got n={n}, k_max={k_max}")
    size = max(mu(n, s) for s in range(k_max + 1))
    _refuse_oversized(f"E_0..E_{k_max} at n={n}", size, size)
    with _E_LOCK:
        es = _E_CACHE.setdefault(n, [IntMatrix([[1]])])
        _extend_recursive(n, es, k_max)
        return list(es[:k_max + 1])


def triangular_check(p: SchemeParams) -> bool:
    """Exact check of the block-triangularization: A P_kc == P_kr U with U
    assembled from f_coeff(i, j) * W_{i,j} blocks."""
    a = intersection_matrix(p)
    pr = bier_p(p.n, p.kr)
    pc = bier_p(p.n, p.kc)
    blocks_rows = []
    for i in range(p.kr + 1):
        row_blocks = [w_matrix(p.n, i, j).scale(f_coeff(i, j, p))
                      for j in range(p.kc + 1)]
        blocks_rows.extend([v for b in row_blocks for v in b.data[r]]
                           for r in range(mu(p.n, i)))
    u = IntMatrix(blocks_rows) if blocks_rows else IntMatrix.zeros(0, pc.cols)
    return a @ pc == pr @ u


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


def _check_coeffs(p: SchemeParams, coeffs, lam: int) -> tuple[int, ...]:
    if coeffs is None:
        coeffs = unit_coeffs(p)
    coeffs = tuple(int(b) for b in coeffs)
    if len(coeffs) != p.kr + 1:
        raise ParameterError(
            f"need kr+1 = {p.kr + 1} coefficients b_0..b_kr, got {len(coeffs)}")
    if lam and not p.square:
        raise ParameterError(
            "a diagonal shift is only defined for square parameters")
    return coeffs


def block_multiplicity(n: int, s: int) -> int:
    """C(n,s) - 2C(n,s-1) + C(n,s-2) = mu_s - mu_{s-1}."""
    return binomial(n, s) - 2 * binomial(n, s - 1) + binomial(n, s - 2)


def _combined_f(p: SchemeParams, coeffs: tuple[int, ...]) -> list[list[int]]:
    """table[i][j] = sum_l b_l f_i(j), f taken at ell = l, for i <= kr and
    j <= kc: the coefficient of W_{i,j} in the conjugated triangular form of
    the combination.  Zero below the diagonal, where W_{i,j} vanishes.
    f_coeff's alternating sum runs once, on g[v][j] = sum_l b_l c_v(j)."""
    terms = [(b, SchemeParams(p.n, p.kr, p.kc, ell))
             for ell, b in enumerate(coeffs) if b]
    g = [[sum(b * c_coeff(v, j, q) for b, q in terms) if v <= j else 0
          for j in range(p.kc + 1)] for v in range(p.kr + 1)]
    return [[sum((-1) ** (i + v) * comb(i, v) * g[v][j] for v in range(i + 1))
             if i <= j else 0 for j in range(p.kc + 1)]
            for i in range(p.kr + 1)]


def ms_matrices(p: SchemeParams, coeffs=None, lam: int = 0) -> list[MsMatrix]:
    """The blocks M_s, entries -lam*delta_{ij} + C(j-s,i-s) * sum_l b_l f_i(j)
    for s <= i <= kr, s <= j <= kc (upper triangular when square), s = 0..kr.
    Refused below n = 3*kc - 1, where multiplicities can go negative."""
    coeffs = _check_coeffs(p, coeffs, lam)
    if not in_range(p.n, p.kc):
        raise ParameterError(
            f"the block reduction assumes n >= 3*kc - 1 (here n >= {3 * p.kc - 1}); "
            f"for n={p.n} use the brute-force oracle instead")
    table = _combined_f(p, coeffs)
    blocks = []
    for s in range(p.kr + 1):
        data = [[binomial(j - s, i - s) * table[i][j] - (lam if i == j else 0)
                 for j in range(s, p.kc + 1)] for i in range(s, p.kr + 1)]
        blocks.append(MsMatrix(s, IntMatrix(data), block_multiplicity(p.n, s)))
    return blocks


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
    coeffs = _check_coeffs(p, coeffs, lam)
    blocks = []
    entries: list[tuple[int, int]] = []
    used_rank = 0
    for m in ms_matrices(p, coeffs, lam):
        snf = smith_normal_form(m.entries)
        slots = min(m.entries.rows, m.entries.cols)
        delta = snf.invariant_factors + (0,) * (slots - snf.rank)
        blocks.append(BlockReport(m.s, m.entries, m.multiplicity, delta, snf.rank))
        entries.extend((d, m.multiplicity) for d in snf.invariant_factors)
        used_rank += snf.rank * m.multiplicity
    free_rank = comb(p.n, p.kc) - used_rank
    entries.append((0, free_rank))
    return SmithGroupResult(p, coeffs, lam, group_from_diagonal(entries),
                            tuple(blocks))


def diagonal_form_entries(result: SmithGroupResult) -> list[tuple[int, int]]:
    """Pooled (entry, multiplicity) pairs of the assembled diagonal form,
    in block order; multiplicities already folded in."""
    out = []
    for b in result.blocks:
        for d in b.delta:
            out.append((d, b.multiplicity))
    return out


def eigenvalues(p: SchemeParams, coeffs=None, lam: int = 0) -> list[SpectrumEntry]:
    """Spectrum sum_l b_l f_i(i) - lam with multiplicity mu_i, i = 0..k: the
    corner entry of each M_i."""
    if not p.square:
        raise ParameterError("eigenvalues need square parameters kr == kc")
    return [SpectrumEntry(m.entries.data[0][0], mu(p.n, m.s))
            for m in ms_matrices(p, coeffs, lam)]
