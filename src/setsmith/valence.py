"""The valence finish of a block the int64 Smith lane hands off.

The method of Dumas, Saunders and Villard (J. Symbolic Comput. 32, 2001),
in word-size integers: a candidate minimal polynomial x^s g(x) of the
square matrix comes from a Krylov sequence modulo word primes, lifted by
CRT, and is checked exactly.  With s <= 1, v = |g(0)| bounds every prime
power of the Smith group, so eliminating the block modulo p**v_p(v) < 2**31
for each prime p of v, and taking the rank modulo a prime not dividing v,
gives every invariant factor.  The finish refuses a non-square matrix, a
Krylov degree over 16, a failed check, x^2 | f, a valence with a cofactor
of 2**32 or more after trial division below 2**16, and a prime power of
2**31 or more; the caller then reduces the block on bigints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .exact import IntMatrix

# The largest degree of a Krylov polynomial accepted (a scheme element's
# minimal polynomial has degree at most k + 1), the bound on every modulus
# of the elimination, and the width of the column blocks the exact check
# multiplies.
_MAX_DEGREE = 16
_LOCAL_MODULUS = 1 << 31
_CHECK_COLUMNS = 64


def _trial_divisors():
    """2, 3 and every 6k +- 1 below 2**16: every prime below 2**16, and
    composites, which never divide once the primes below them are out."""
    yield 2
    yield 3
    for k in range(6, 1 << 16, 6):
        yield k - 1
        yield k + 1


def _is_prime(q: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61: exact for q < 4759123141."""
    if q < 2:
        return False
    for p in (2, 7, 61):
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in (2, 7, 61):
        x = pow(base, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _factor(v: int) -> dict[int, int] | None:
    """Prime factorization of v >= 1 by trial division below 2**16, or None
    if a cofactor of 2**32 or more is left: below that it is prime."""
    out = {}
    for p in _trial_divisors():
        if p * p > v:
            break
        if v % p == 0:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            out[p] = e
    else:
        if v >= 1 << 32:
            return None
    if v > 1:
        out[v] = 1
    return out


def _check_primes(n: int, above: int) -> list[int] | None:
    """The largest primes q with n * q**2 < 2**63, so that an n-term dot
    product of residues mod q is exact in int64, largest first: just enough
    of them for their product to exceed above, or None past 64."""
    out, product = [], 1
    for q in filter(_is_prime, range((1 << (63 - n.bit_length()) // 2) - 1, 2, -2)):
        out.append(q)
        product *= q
        if product > above:
            return out
        if len(out) == 64:
            return None
    return None


def _krylov_polynomial(aq: np.ndarray, q: int) -> list[int] | None:
    """c_0..c_d (c_d = 1) with sum c_i aq^i x = 0 mod q, of least degree,
    for a fixed start vector x; None past _MAX_DEGREE.  aq holds
    residues mod q, with n * q**2 < 2**63."""
    # Fibonacci hashing of the index: fixed entries in 1..2**16, well spread
    index = np.arange(1, aq.shape[0] + 1, dtype=np.uint64)
    start = (index * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(48)
    power = (start + np.uint64(1)).astype(np.int64) % q
    basis = []   # (pivot index, vector scaled to 1 there, its combination)
    for d in range(_MAX_DEGREE + 1):
        # reduce aq^d x against the earlier powers
        w, combo = power, [0] * d + [1]
        for col, vec, vcombo in basis:
            c = int(w[col])
            if c:
                w = (w - c * vec) % q
                for i, y in enumerate(vcombo):
                    combo[i] = (combo[i] - c * y) % q
        nz = np.flatnonzero(w)
        if not nz.size:
            return combo
        col = int(nz[0])
        inv = pow(int(w[col]), -1, q)
        basis.append((col, w * inv % q, [c * inv % q for c in combo]))
        power = aq @ power % q
    return None


def _annihilates(a: np.ndarray, coeffs: list[int], bound: int) -> bool:
    """Whether sum_i coeffs[i] a^i is exactly zero, for an int64 square a
    whose rows have absolute sums at most bound.

    Horner's rule runs in int64 on blocks of identity columns.  No entry of
    a^i exceeds bound**i, so no partial sum exceeds h = sum |c_i| bound**i.
    If h < 2**63 nothing can overflow; if not, the check runs modulo primes
    q with n * q**2 < 2**63 whose product exceeds 2h, which no nonzero
    entry can be a multiple of.
    """
    n = a.shape[0]
    h = 1
    for c in coeffs[-2::-1]:
        h = bound * h + abs(c)
    if h < 1 << 63:
        checks = [(None, a, coeffs)]
    else:
        primes = _check_primes(n, 2 * h)
        if primes is None:
            return False
        checks = ((q, a % q, [c % q for c in coeffs]) for q in primes)
    for q, aq, cs in checks:
        for j0 in range(0, n, _CHECK_COLUMNS):
            width = min(_CHECK_COLUMNS, n - j0)
            diag = (np.arange(j0, j0 + width), np.arange(width))
            y = np.zeros((n, width), dtype=np.int64)
            y[diag] = 1
            for c in cs[-2::-1]:
                y = aq @ y
                y[diag] += c
                if q is not None:
                    y %= q
            if y.any():
                return False
    return True


def _unit_pivots(w: np.ndarray, mod: int, p: int) -> int:
    """Eliminate w, entries in [0, mod), modulo the power mod of the prime
    p in place, with pivots prime to p; return the pivot count r.
    w[r:, r:] is then the Schur complement, reduced into [0, mod), with
    every entry a multiple of p.

    A column with no unit moves to the back; it never gains one, since the
    pivot row's entry in it is a multiple of p too.  The trailing block is
    reduced only when int64 runs out of headroom: the pivot column and row
    are reduced, so each update subtracts less than mod**2 <= 2**62 from an
    entry.
    """
    rows, live = w.shape
    r = 0
    headroom = ((1 << 63) - mod) // (mod - 1) ** 2
    spent = 0
    while r < min(rows, live):
        hits = np.flatnonzero(w[r:, r] % p)
        if not hits.size:
            live -= 1
            w[r:, [r, live]] = w[r:, [live, r]]
            continue
        i = r + int(hits[0])
        if i != r:
            row = w[r].copy()
            w[r] = w[i]
            w[i] = row
        if spent == headroom:
            w[r:, r:] %= mod
            spent = 0
        pivot_row = w[r, r + 1:] % mod
        f = w[r + 1:, r] % mod * pow(int(w[r, r]) % mod, -1, mod) % mod
        w[r + 1:, r + 1:] -= f[:, None] * pivot_row
        spent += 1
        r += 1
    w[r:, r:] %= mod
    return r


def _local_counts(block: np.ndarray, p: int, e: int) -> list[int]:
    """How many local invariant factors of block at p have valuation 0, 1,
    ..., e - 1: eliminate modulo p**e with unit pivots, and divide what is
    left by p whenever no unit is left."""
    mod = p ** e
    w = block % mod
    counts = []
    while True:
        r = _unit_pivots(w, mod, p)
        counts.append(r)
        w = w[r:, r:]
        if len(counts) == e or not w.any():
            return counts + [0] * (e - len(counts))
        w = w // p
        mod //= p


def valence_finish(m: IntMatrix, block: np.ndarray) -> list[int] | None:
    """Positive diagonal values of some diagonal form of block, the
    trailing block the int64 lane left of the square matrix m, computed in
    word-size arithmetic; None when this finish does not apply.

    A candidate minimal polynomial f of m comes from a Krylov sequence
    modulo word primes, lifted by CRT, and is checked exactly: f(m) = 0.
    With f = x^s g, s <= 1 and v = |g(0)| > 0, v annihilates the torsion
    of coker m (and so of coker block, a direct summand): for s = 0,
    v I = +-m h(m); for s = 1, g(m) kills the column space of m.  So
    every prime of an invariant factor divides v, at most v_p(v) times,
    and the rank is the rank modulo a prime not dividing v.  Eliminating
    modulo p**v_p(v) with unit pivots then gives every valuation.
    Refused: non-square m, a Krylov degree over _MAX_DEGREE, a
    failed check, x^2 | f, a cofactor of v of 2**32 or more left by trial
    division, and a prime power p**v_p(v) of 2**31 or more.
    """
    n = m.rows
    if n != m.cols:
        return None
    a = np.array(m.data, dtype=np.int64)
    top = int(np.abs(a).max())
    bound = (int(np.abs(a).sum(axis=1).max()) if top * n < 1 << 63
             else top * n)
    # every root of f is an eigenvalue, at most bound in absolute value,
    # so |coefficient| <= (1 + bound)**degree
    first = _check_primes(n, 1)[0]
    coeffs = _krylov_polynomial(a % first, first)
    if coeffs is None:
        return None
    primes = _check_primes(n, 2 * (1 + bound) ** (len(coeffs) - 1))
    if primes is None:
        return None
    modulus = first
    for q in primes[1:]:
        more = _krylov_polynomial(a % q, q)
        if more is None or len(more) != len(coeffs):
            return None
        inv = pow(modulus, -1, q)
        coeffs = [c + modulus * ((x - c) * inv % q) for c, x in zip(coeffs, more)]
        modulus *= q
    coeffs = [c - modulus if 2 * c > modulus else c for c in coeffs]
    s = 0 if coeffs[0] else 1
    v = abs(coeffs[s])
    factors = _factor(v) if v else None
    if (factors is None
            or any(p ** e >= _LOCAL_MODULUS for p, e in factors.items())
            or not _annihilates(a, coeffs, bound)):
        return None
    rank = block.shape[0]
    if s:
        # v is below the CRT modulus, a product of at most 64 primes below
        # 2**31, and the primes below 2**16 multiply to far more than that,
        # so one of them does not divide v
        rank_prime = next(p for p in _trial_divisors() if v % p and _is_prime(p))
        rank = _local_counts(block, rank_prime, 1)[0]
    values = [1] * rank
    for p, e in factors.items():
        i = 0
        counts = _local_counts(block, p, e)
        for j, c in enumerate(counts + [rank - sum(counts)]):
            for k in range(i, i + c):
                values[k] *= p ** j
            i += c
    return values
