"""The objects of the paper's proof, built and checked exactly: the
inclusion basis P, the standard-inclusion matrices W_{i,j}, their diagonal
forms D_{i,j}, the block coefficients f, the unimodular family E_s that
diagonalizes every W block at once, the block-triangularization check, and
the unimodular tools these are built and checked with.

smith_group needs none of this: the M_s blocks come from closed formulas,
and the group does not depend on which E family diagonalizes the W
blocks.  So setsmith loads this module on first use of one of its names,
and the block reduction starts without compiling it.
"""

from __future__ import annotations

import threading
from itertools import combinations
from math import comb, gcd, prod

import numpy as np

from .exact import (ConstructionError, ExactError, IntMatrix, _as_array,
                    _product, smith_normal_form)
from .oracle import _meets, _scheme_array
from .scheme import (ParameterError, SchemeParams, _refuse_oversized,
                     c_coeff, in_range, unit_coeffs)
from .subsets import STANDARD, binomial, enumerate_subsets, mu


# ---------------------------------------------------------------------------
# Unimodular tools

def index(m: IntMatrix) -> int:
    """Product of the invariant factors; 1 for rank zero."""
    return prod(smith_normal_form(m).invariant_factors, start=1)


def is_unimodular(m: IntMatrix | np.ndarray) -> bool:
    """True iff m, an IntMatrix or array, is square with determinant +-1."""
    a = _as_array(m)
    rows, cols = a.shape
    return rows == cols and smith_normal_form(a).invariant_factors == (1,) * rows


def _bareiss_det(grid: list[list[int]]) -> int:
    """Fraction-free determinant of a small dense submatrix."""
    a = [row[:] for row in grid]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pkk - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


def gcd_minors(m: IntMatrix, order: int) -> int:
    """gcd of all order x order minor determinants (0 when all vanish).

    Meant for the small block matrices; refuses anything bigger than 8 on
    either side since the minor count explodes combinatorially.
    """
    if order < 1 or order > min(m.rows, m.cols):
        raise ExactError(f"minor order {order} out of range for {m.rows}x{m.cols}")
    if max(m.rows, m.cols) > 8:
        raise ExactError("gcd_minors is restricted to matrices of dimension <= 8")
    g = 0
    for rows in combinations(range(m.rows), order):
        for cols in combinations(range(m.cols), order):
            d = _bareiss_det([[m.data[i][j] for j in cols] for i in rows])
            g = gcd(g, d)
            if g == 1:
                return 1
    return g


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix."""
    if m.rows != m.cols:
        raise ExactError("only square matrices can be unimodular")
    snf = smith_normal_form(m, with_transforms=True)
    if snf.rank != m.rows or any(d != 1 for d in snf.invariant_factors):
        raise ExactError("matrix is not unimodular")
    # left @ m @ right == I  =>  m^{-1} == right @ left
    return snf.right @ snf.left


# ---------------------------------------------------------------------------
# Unimodular completion

def _last_nonzero_columns(a: np.ndarray) -> list[int] | None:
    """The columns, ascending, that hold the last nonzero of some vector in
    the row space of the integer array a modulo 2**31 - 1; None if the rows
    are dependent there.  One elimination, scanning the columns from last
    to first."""
    p = (1 << 31) - 1
    rows, cols = a.shape
    a = (a % p).astype(np.int64, copy=False)
    found = []
    for j in range(cols - 1, -1, -1):
        nz = np.flatnonzero(a[:, j])
        if nz.size == 0:
            continue
        # live rows are zero past column j, so only columns < j change
        i, rest = nz[0], nz[1:]
        pivot = a[i, :j] * pow(int(a[i, j]), -1, p) % p
        a[rest, :j] = (a[rest, :j] - a[rest, j, None] * pivot) % p
        a[[i, -1]] = a[[-1, i]]
        a = a[:-1]
        found.append(j)
    return found[::-1] if len(found) == rows else None


def unimodular_completion(m: IntMatrix | np.ndarray) -> IntMatrix:
    """Extend a full-row-rank index-1 matrix, an IntMatrix or an integer
    array, to a square unimodular IntMatrix.

    The rows of m come first, then the unit rows e_j, in column order, for
    every column j outside K: the r columns that hold the last nonzero of
    some row-space vector of m modulo 2**31 - 1 (the unit rows a greedy
    pass finds independent of m).  Expanding along the unit rows, the
    determinant is +-det(m[:, K]), so one r x r unimodularity check
    certifies the result, and with it full row rank and index 1.  If that
    check fails, the completion is read off the Smith transforms of m; it
    exists exactly when m has full row rank and index 1, and ExactError is
    raised otherwise.
    """
    a = _as_array(m)
    r, c = a.shape
    if r > c:
        raise ExactError("completion needs rows <= cols")
    keep = _last_nonzero_columns(a)
    if keep is not None and is_unimodular(a[:, keep]):
        if r == c and isinstance(m, IntMatrix):
            return m
        out = np.zeros((c, c), dtype=a.dtype)
        out[:r] = a
        # the unit rows, in column order, of the columns outside keep
        out[np.arange(r, c), np.setdiff1d(np.arange(c), keep)] = 1
        return IntMatrix(out)

    # Smith-transform fallback: with L m R = [I | 0], m stacked over the
    # bottom rows of R^{-1} is blockdiag(L^{-1}, I) R^{-1}, a unimodular
    # product.
    snf = smith_normal_form(a, with_transforms=True)
    if snf.rank != r or any(d != 1 for d in snf.invariant_factors):
        raise ExactError("completion needs full row rank and index 1")
    right_inv = unimodular_inverse(snf.right)
    candidate = IntMatrix(a.tolist() + right_inv.data[r:])
    if not is_unimodular(candidate):
        raise ConstructionError("unimodular completion failed")
    return candidate


# ---------------------------------------------------------------------------
# Inclusion matrices, block coefficients and diagonal forms

def _inclusion(rows, cols) -> IntMatrix:
    """Labelled 0/1 matrix, 1 where the row subset is inside the column one."""
    inside = _meets(rows, cols) == np.array([len(a) for a in rows])[:, None]
    return IntMatrix(inside, row_labels=rows, col_labels=cols)


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


def f_coeff(i: int, j: int, p: SchemeParams) -> int:
    """Alternating-sum transform of c_coeff: the block coefficient of W_{i,j}
    in the conjugated triangular form."""
    return sum((-1) ** (i + v) * comb(i, v) * c_coeff(v, j, p)
               for v in range(i + 1))


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
    pairs = d_diag(n, i, j)[:-1]
    _refuse_oversized(f"D'({n},{i},{j})", mu(n, i), mu(n, i))
    return [d for d, m in pairs for _ in range(m)]


def d_matrix(n: int, i: int, j: int) -> IntMatrix:
    """The mu_i x mu_j rectangular diagonal matrix D_{i,j}."""
    d_diag(n, i, j)  # the parameter checks come before the size check
    rows, cols = mu(n, i), mu(n, j)
    _refuse_oversized(f"D({n},{i},{j})", rows, cols)
    return IntMatrix.diagonal(d_prime_entries(n, i, j), rows, cols)


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
    while len(es) <= k_max:
        s = len(es) - 1
        ew = _product(es[s], w_matrix(n, s, s + 1))
        d = np.array(d_prime_entries(n, s, s + 1), dtype=ew.dtype)[:, None]
        if (ew % d).any():
            raise ConstructionError(
                f"row scaling of E_{s} W_{{{s},{s + 1}}} is not exact "
                f"at n={n}; the diagonalization guarantee is violated")
        es.append(unimodular_completion(ew // d))


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
    assembled from f_coeff(i, j) * W_{i,j} blocks.  U is built at once: the
    inclusion table of the standard subsets of size at most kr into those
    of size at most kc, each 1 scaled by f_coeff at the two sizes."""
    a = _scheme_array(p, unit_coeffs(p))
    pr = bier_p(p.n, p.kr)
    pc = pr if p.kc == p.kr else bier_p(p.n, p.kc)
    rows = enumerate_subsets(p.n, p.kr, STANDARD, up_to=True)
    cols = enumerate_subsets(p.n, p.kc, STANDARD, up_to=True)
    row_size = np.array([len(s) for s in rows])[:, None]
    col_size = np.array([len(s) for s in cols])
    f = _as_array(IntMatrix([[f_coeff(i, j, p) for j in range(p.kc + 1)]
                             for i in range(p.kr + 1)]))
    u = np.where(_meets(rows, cols) == row_size, f[row_size, col_size], 0)
    return np.array_equal(_product(a, pc), _product(pr, u))
