"""The valence lane of the dense Smith reduction.

The method of Dumas, Saunders and Villard (J. Symbolic Comput. 32, 2001).
It works on the matrix G = A itself when A is square, and otherwise on the
Gram matrix G = A A^T (or A^T A, whichever is smaller), whose valence
bounds the torsion of A as well.  A candidate minimal polynomial
f = x^s g(x) of G comes from a Krylov sequence modulo word primes, lifted
by CRT, and f(G) = 0 is checked exactly by float64 matrix products, whose
partial sums stay integers below 2**53 (as in FFLAS-FFPACK, Dumas, Giorgi
and Pernet, ACM TOMS 2008).  With s <= 1, v = |g(0)| bounds every prime
power of the Smith group.  v is split by trial division into pairwise
coprime parts: p**v_p(v) for the primes p below 2**16, and the cofactor
they leave, prime or not; with x | f the least prime that does not divide
v joins them, to find the rank.  The parts below 2**31 are packed into
moduli M < 2**31, worked on in int32 if 2 M**2 < 2**31 and in int64
otherwise; the larger parts make one modulus, worked on in Python ints.
One elimination of A over Z/M for each M gives every gcd(d_i, M), so
every invariant factor.  Entries of any size are taken.  The lane refuses
only where its certificate fails: a Krylov degree over 16, a failed
check, x^2 | f, and a case that needs more than 64 primes; the caller
then runs the list lane.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

import numpy as np

from .exact import _product, _trial_division, _xgcd, group_from_diagonal

# The largest degree of a Krylov polynomial accepted (a scheme element's
# minimal polynomial has degree at most k + 1), the bound below which
# elimination moduli are packed and worked on in int32 or int64, the width
# of the column blocks the exact check multiplies, and the bound below
# which float64 holds every integer.
_MAX_DEGREE = 16
_LOCAL_MODULUS = 1 << 31
_CHECK_COLUMNS = 64
_FLOAT_EXACT = 1 << 53
# Below this a modulus's gcds come from a table of at most 32768 int32
# entries: on a 165 x 165 int32 block, np.gcd took 46-58 ns an element and
# a lookup 3.6 ns, about as long as % (2-core VM).
_TABLE_BELOW = 1 << 15


# The primes of _primes found so far for each n, largest first.  A tuple is
# replaced, never changed, so a concurrent caller at worst finds one again.
_PRIMES_FOUND: dict[int, tuple[int, ...]] = {}


def _primes(n: int, above: int) -> list[int] | None:
    """The largest primes q with n * (q - 1)**2 + q < 2**53, so that an
    n-term dot product of residues mod q, plus one more residue, is exact
    in float64, largest first: just enough of them for their product to
    exceed above, or None past 64.  Each is found once per n, by trial
    division below 2**16, which decides it, as q < 2**27."""
    found, product = _PRIMES_FOUND.get(n, ()), 1
    for i in range(64):
        if i == len(found):
            start = found[-1] - 2 if found else isqrt(_FLOAT_EXACT // n) | 1
            found += (next(q for q in range(start, 2, -2)
                           if n * (q - 1) ** 2 + q < _FLOAT_EXACT
                           and _trial_division(q) == {q: 1}),)
            _PRIMES_FOUND[n] = found
        product *= found[i]
        if product > above:
            return list(found[:i + 1])
    return None


def _krylov_polynomial(aq: np.ndarray, q: int) -> list[int] | None:
    """c_0..c_d (c_d = 1) with sum c_i aq^i x = 0 mod q, of least degree,
    for a fixed start vector x; None past _MAX_DEGREE.  aq is float64 and
    holds residues mod q, with q from _primes."""
    # Fibonacci hashing of the index: fixed entries in 1..2**16, well spread
    index = np.arange(1, aq.shape[0] + 1, dtype=np.uint64)
    start = (index * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(48)
    power = ((start + np.uint64(1)) % np.uint64(q)).astype(np.float64)
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
    """Whether sum_i coeffs[i] a^i is exactly zero, for an integer square
    array a whose rows have absolute sums at most bound, and monic coeffs.

    Horner's rule runs in float64 on blocks of columns of a + coeffs[-2] I.
    No entry of a^i exceeds bound**i, so no partial sum exceeds h = sum
    |c_i| bound**i, and every one is an integer.  If h < 2**53 each is
    exact; if not, the check runs modulo primes q from _primes whose
    product exceeds 2h, which no nonzero entry can be a multiple of.
    """
    n = a.shape[0]
    h = 1
    for c in coeffs[-2::-1]:
        h = bound * h + abs(c)
    if h < _FLOAT_EXACT:
        checks = [(None, a.astype(np.float64), coeffs)]
    else:
        primes = _primes(n, 2 * h)
        if primes is None:
            return False
        checks = ((q, (a % q).astype(np.float64), [c % q for c in coeffs])
                  for q in primes)
    for q, aq, cs in checks:
        for j0 in range(0, n, _CHECK_COLUMNS):
            width = min(_CHECK_COLUMNS, n - j0)
            diag = (np.arange(j0, j0 + width), np.arange(width))
            y = aq[:, j0:j0 + width].copy()
            for i, c in enumerate(cs[-2::-1]):
                if i:
                    y = aq @ y
                y[diag] += c
                if q is not None:
                    y %= q
            if y.any():
                return False
    return True


def _gcd_table(mod: int) -> np.ndarray | None:
    """gcd(x, mod) for x = 0..mod-1, as int32, when mod < _TABLE_BELOW; else
    None.  Each power p**j of a prime that divides mod puts a factor p on
    its multiples (_trial_division factors any mod below 2**32 into primes)."""
    if mod >= _TABLE_BELOW:
        return None
    table = np.ones(mod, dtype=np.int32)
    for p, e in _trial_division(mod).items():
        for j in range(1, e + 1):
            table[::p ** j] *= p
    return table


def _swap(x: np.ndarray, y: np.ndarray) -> None:
    """Exchange two equal-shaped views of one array by copying."""
    x_copy = x.copy()
    x[...] = y
    y[...] = x_copy


def _divides_block(d: int, w: np.ndarray, t: int,
                   witness: dict[int, tuple[int, int]]) -> bool:
    """Whether d divides every entry of the trailing block w[t:, t:].

    witness[d] is an entry of w that d did not divide when last tried; an
    update does not change an entry modulo a d that divides the pivot row,
    so it mostly settles the question at once.  Then up to 8 rows and 8
    columns spread over the block, which mostly settle the rest, and then
    the whole block, each recording an entry d does not divide.
    """
    i, j = witness.get(d, (0, 0))
    if min(i, j) >= t and w[i, j] % d:
        return False
    block = w[t:, t:]
    rows, cols = (-(-n // 8) for n in block.shape)
    for r, c in ((rows, 1), (1, cols), (1, 1)):
        rest = block[::r, ::c] % d
        k = int(rest.argmax())
        if rest.flat[k]:
            i, j = divmod(k, rest.shape[1])
            witness[d] = (t + r * i, t + c * j)
            return False
    return True


def _diagonal_mod(a: np.ndarray, mod: int) -> list[int]:
    """gcd(x, mod) for the diagonal entries x of a diagonal form of the
    integer array a over Z/mod, mod > 0, one per row or column, whichever
    are fewer; a zero entry gives mod.  Residues are int32 when 2 mod**2 <
    2**31, int64 when mod < _LOCAL_MODULUS, and Python ints otherwise.

    A unit at (t, t) is the pivot.  Otherwise a unit in column t, then in
    row t, is swapped there by copying, with gcds with mod read from a
    table when mod < 2**15 (_gcd_table).  With no unit in either, and mod
    below 2**31, let h be the gcd of every gcd in column t and row t, so of
    those entries and mod.  Every common factor of the trailing block with
    mod divides h, so h is their largest when it divides the block, and
    only h is tried (_divides_block).  If it divides, every later gcd is
    taken times h: the block over Z/mod is h times a block over Z/(mod /
    h).  If mod is left 1, the block was zero and every entry left is the
    original mod.  On Python ints no division is tried: there the tries
    cost about what the divisions save.  Otherwise the entry of least gcd
    in column t, or in row t if that holds a smaller one, is the pivot.
    Where it does not divide an entry of either (mod has two or more prime
    factors), one 2x2 Bezout step of rows or columns replaces it by their
    gcd, whose gcd with mod is a proper divisor of the pivot's.  Once it
    divides them all, one update of the trailing block clears its column,
    and column operations its row, which touch nothing else.  The pivot
    row and column are reduced, so no product formed reaches 2 mod**2 and
    each update subtracts at most (mod - 1)**2 from an entry: the trailing
    block is reduced into [0, mod) after (2**31 - mod) // (mod - 1)**2
    updates in int32, and after (2**63 - mod) // (mod - 1)**2 otherwise,
    and whenever mod is divided.
    """
    if mod < _LOCAL_MODULUS:
        wide = 2 * mod * mod >= _LOCAL_MODULUS
        w = (a % mod).astype(np.int64 if wide else np.int32, copy=False)
    else:
        w, wide = a.astype(object, copy=False) % mod, True
    top = 1 << (63 if wide else 31)
    headroom = (top - mod) // max(mod - 1, 1) ** 2
    table = _gcd_table(mod)

    def gcds(x):
        return np.gcd(x, mod) if table is None else table[x]

    witness: dict[int, tuple[int, int]] = {}
    size, scale, spent = min(w.shape), 1, 0
    out = []
    for t in range(size):
        if spent == headroom:
            w[t:, t:] %= mod
            spent = 0
        while True:  # until the pivot is at (t, t), row t and column t reduced
            w[t:, t] %= mod
            if gcd(int(w[t, t]), mod) == 1:
                w[t, t + 1:] %= mod
                break
            in_col = gcds(w[t:, t])
            i = int(in_col.argmin())
            if in_col[i] == 1:
                _swap(w[t, t:], w[t + i, t:])
                w[t, t + 1:] %= mod
                break
            w[t, t:] %= mod
            in_row = gcds(w[t, t:])
            j = int(in_row.argmin())
            if in_row[j] == 1:
                _swap(w[t:, t], w[t:, t + j])
                w[t + 1:, t] %= mod
                break
            h = 1 if w.dtype == object else gcd(int(np.gcd.reduce(in_col)),
                                                int(np.gcd.reduce(in_row)))
            if h == 1 or not _divides_block(h, w, t, witness):
                if in_row[j] < in_col[i]:
                    _swap(w[t:, t], w[t:, t + j])
                    w[t:, t] %= mod
                elif i:
                    _swap(w[t, t:], w[t + i, t:])
                    w[t, t:] %= mod
                break
            block = w[t:, t:]
            block %= mod
            block //= h
            mod //= h
            scale *= h
            if mod == 1:
                return out + [scale] * (size - t)
            headroom, spent = (top - mod) // max(mod - 1, 1) ** 2, 0
            table = _gcd_table(mod)
        while True:
            p = int(w[t, t])
            g = gcd(p, mod)
            # rows of w, then rows of w.T (columns of w): p % g == 0, so a
            # nonzero remainder is not the pivot's
            for v in (w, w.T) if g > 1 else ():
                bad = v[t:, t] % g
                i = t + int(bad.argmax())
                if bad[i - t]:
                    # rows t and i of v become (h, ...) and (0, ...)
                    x = int(v[i, t])
                    h, s, r = _xgcd(p, x)
                    top_row, low = v[t, t:].copy(), v[i, t:] % mod
                    v[t, t:] = (s * top_row + r * low) % mod
                    v[i, t:] = (p // h * low - x // h * top_row) % mod
                    break
            else:
                break
        if g < mod:
            rest = mod // g
            col = w[t + 1:, t] // g if g > 1 else w[t + 1:, t]
            f = col * pow(p // g, -1, rest) % rest
            w[t + 1:, t + 1:] -= f[:, None] * w[t, t + 1:]
            spent += 1
        out.append(g * scale)
    return out


def _rank_prime(v: int) -> int:
    """The least prime that does not divide v >= 1: the least q > 1 coprime
    to v, which is prime (its prime factors are coprime to v), at most v+1."""
    return next(q for q in count(2) if gcd(q, v) == 1)


def valence_finish(a: np.ndarray) -> list[int] | None:
    """Every invariant factor of the integer array a (from
    exact._as_array); None when the lane refuses a (see the module
    docstring).

    a is transposed if it has more rows than columns, so that it is r x c
    with r <= c.  The lane works on G = a when a is square, and otherwise
    on the Gram matrix G = a a^T, whose entries are below c max|a|**2.
    A candidate minimal polynomial f of G comes from a Krylov sequence
    modulo word primes, lifted by CRT, and is checked exactly: f(G) = 0.
    With f = x^s g, s <= 1 and v = |g(0)| > 0, v annihilates the torsion
    of coker G: for s = 0, v I = +-G h(G); for s = 1, g(G) kills the
    column space of G.  v also annihilates the torsion of coker a: if
    m y is in col(a) for some m > 0, then y is in col(a) (x) Q, which is
    col(G) (x) Q, since col(G) lies in col(a) and both have the rank of
    a; so y is torsion modulo col(G), and v y is in col(G), inside
    col(a).  So every invariant factor d_i of a but zero divides v, and
    gcd(d_i, M) for M = v gives it.  With s = 1, M also takes the prime q
    of _rank_prime(v), which does not divide v: gcd(d_i, q) is q exactly
    when d_i = 0.  M is split into coprime moduli: the parts of 2**31 or
    more into one, the others largest first into moduli below 2**31.  The
    diagonals of a modulo all of them, coprime, give the chain of the
    gcd(d_i, M) in one group_from_diagonal call; with s = 1 its top run,
    the only one q divides, is the zero factors.
    """
    if a.shape[0] > a.shape[1]:
        a = a.T
    n = a.shape[0]
    gram = a if n == a.shape[1] else _product(a, a.T)
    top = int(np.abs(gram).max())
    bound = (int(np.abs(gram).sum(axis=1).max()) if top * n < 1 << 63
             else top * n)
    # every root of f is an eigenvalue, at most bound in absolute value,
    # so |coefficient| <= (1 + bound)**degree
    first = _primes(n, 1)[0]
    coeffs = _krylov_polynomial((gram % first).astype(np.float64), first)
    if coeffs is None:
        return None
    primes = _primes(n, 2 * (1 + bound) ** (len(coeffs) - 1))
    if primes is None:
        return None
    modulus = first
    for q in primes[1:]:
        more = _krylov_polynomial((gram % q).astype(np.float64), q)
        if more is None or len(more) != len(coeffs):
            return None
        inv = pow(modulus, -1, q)
        coeffs = [c + modulus * ((x - c) * inv % q) for c, x in zip(coeffs, more)]
        modulus *= q
    coeffs = [c - modulus if 2 * c > modulus else c for c in coeffs]
    s = 0 if coeffs[0] else 1
    v = abs(coeffs[s])
    if not v or not _annihilates(gram, coeffs, bound):
        return None  # x^2 | f, or f(G) != 0
    parts = [p ** e for p, e in _trial_division(v).items()]
    rank_prime = _rank_prime(v) if s else 0
    if rank_prime:
        parts.append(rank_prime)
    moduli: list[int] = []
    for part in sorted(parts, reverse=True):
        for i, mod in enumerate(moduli):
            if mod * part < _LOCAL_MODULUS or part >= _LOCAL_MODULUS:
                moduli[i] *= part
                break
        else:
            moduli.append(part)
    runs = list(group_from_diagonal((d, 1) for mod in moduli
                                    for d in _diagonal_mod(a, mod)).runs)
    if rank_prime and runs and runs[-1][0] % rank_prime == 0:
        n -= runs.pop()[1]  # the zero factors: gcd(0, M) = M
    return [1] * (n - sum(m for _, m in runs)) + [d for d, m in runs
                                                  for _ in range(m)]
