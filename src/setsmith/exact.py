"""Exact integer matrices, Smith normal form, and abelian group invariants.

Everything here is exact.  The Smith reduction has two lanes.  The list lane
(_list_factors) works on lists of Python integers, which cannot
overflow.  It takes the gcds of the minors of a matrix of at most 3 rows or
columns and at most _MINORS_UP_TO of either, as the last three M_s blocks
of a square combination are, and eliminates any other one (_eliminate):
below _BEZOUT_BELOW rows and columns by one 2x2 Bezout step per entry, and
past that by Euclid's rounded quotients, whose entries grow less.  It
reduces every M_s block, whatever its size, because scheme.smith_group
calls it directly; smith_normal_form sends it a matrix with fewer than
_LIST_LANE_BELOW rows or columns.  Any other one (the dense oracle's
matrices) goes to the valence lane (setsmith.valence), which works modulo
moduli bounded by the valence of the matrix, or of its Gram matrix when it
is not square, and checks its minimal polynomial exactly.  A matrix the
valence lane refuses is eliminated.  Both lanes return the invariant
factors, in divisibility-chain order.  Transforms are always computed by
_eliminate.  Arrays are int64 only below _INT64_CEILING, and matrix products
take float64 or int64 only when no partial sum can be rounded or overflow.

numpy and setsmith.valence load on first dense use: only the functions
that build or reduce an array import them, so the block reduction, group
assembly and JSON output run without either.  Importing numpy takes
hundreds of times as long as a block query.
"""

from __future__ import annotations

import sys
from math import gcd, prod
from itertools import chain, combinations, groupby
from operator import index
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# An exact integer array is int64 only with every entry below this in
# absolute value, so that every entry, its negation and the sum of two fit;
# past it, dtype object (Python ints).
_INT64_CEILING = 1 << 62

# Matrices with fewer rows or columns than this skip the valence lane.
# Median times per square matrix, list lane against valence lane (2-vCPU
# VM, Python 3.11, numpy on one thread): on scheme elements with
# two-digit coefficients, 0.13 against 0.41 ms at 12 columns, 0.42
# against 0.56 ms at 20, about even at 21 to 24, and 1.43 against 0.80 ms
# at 32; on random matrices with entries in -9..9, 0.25 against 3.8 ms at
# 12, and from 20 columns on, where every one is refused at the Krylov
# degree cap, the list lane's time plus 0.6-0.7 ms.  So dense matrices of
# 20 or more columns and rows take the valence lane.  (It refused all 252
# M_s blocks of 20 or more rows offered to it, k = 19 to 32, which is why
# scheme.smith_group sends none.)
_LIST_LANE_BELOW = 20

# _eliminate takes Bezout steps (Kannan and Bachem, SIAM J. Comput. 8, 1979)
# on blocks with fewer rows and columns than this.  Bezout time over Euclid
# time (2-vCPU VM, Python 3.11): 0.35-0.65 on M_0 of random two-digit
# combinations with 6 to 11 rows at n = 3k to 10**30; on the M_s of k = 16
# to 32 at n = 10**30, 0.37-0.48 at 9 and 10 rows, 0.54-0.68 at 11, 0.7-1.4
# at 12 and 0.6-2.0 at 13, as the coefficients grow; 32 on a random 30 x 30.
_BEZOUT_BELOW = 12

# _list_factors takes the gcds of the minors of a matrix of at most 3 rows or
# columns and at most _MINORS_UP_TO of either: on M_s blocks (kr <= 2,
# kc <= 12, n to 10**30, two-digit coefficients; 2-core VM) in 0.25-0.65 of
# _eliminate's time up to 6 columns, 0.88 at 3 x 6 and 1.34 at 3 x 7.
_MINORS_UP_TO = 6


class ExactError(ValueError):
    """Precondition violation in an exact-linear-algebra operation."""


class ConstructionError(RuntimeError):
    """A construction whose success is guaranteed by theory failed."""


def _digits(v: int) -> str:
    """str(v), also past Python's int/str digit limit, through decimal."""
    try:
        return str(v)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(v))


def _read_int(token: str) -> int:
    """A matrix file's entry: an optional sign and ASCII digits, also past
    that limit, through decimal.  Any other token is refused before int()
    sees it, which takes '1_0' and other scripts' digits, and checks the
    length before the syntax."""
    digits = token[1:] if token[:1] in "+-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ExactError(f"matrix file holds a non-integer token {token!r:.200}")
    try:
        return int(token)
    except ValueError:  # past the limit
        from decimal import Decimal
        return int(Decimal(token))


class IntMatrix:
    """Dense integer matrix with optional subsets labelling rows/columns.
    data is a sequence of rows, or a 2-D integer array (converted once)."""

    __slots__ = ("rows", "cols", "data", "row_labels", "col_labels")

    def __init__(self, data, row_labels=None, col_labels=None,
                 cols: int | None = None):
        # no array can exist before numpy is loaded
        np = sys.modules.get("numpy")
        if np is not None and isinstance(data, np.ndarray):
            data = _as_array(data)
            rows, cols = data.shape
            data = data.tolist()
        else:
            try:  # ints, bools and numpy integers; never a rounded float
                data = [list(map(index, row)) for row in data]
            except TypeError as exc:
                raise ExactError(f"matrix entries must be integers: {exc}") from None
            rows = len(data)
            if cols is None:
                cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ExactError("ragged rows, or rows of other than cols entries")
        if row_labels is not None:
            row_labels = tuple(row_labels)
            if len(row_labels) != rows:
                raise ExactError("row label count does not match row count")
        if col_labels is not None:
            col_labels = tuple(col_labels)
            if len(col_labels) != cols:
                raise ExactError("column label count does not match column count")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.row_labels = row_labels
        self.col_labels = col_labels

    @classmethod
    def _keep(cls, data: list[list[int]], cols: int, row_labels=None,
              col_labels=None) -> "IntMatrix":
        """An IntMatrix that keeps data, lists of cols Python ints each that
        the caller has just built and hands over, and the labels, tuples or
        None of matching lengths, unchecked."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = len(data), cols, data
        m.row_labels, m.col_labels = row_labels, col_labels
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if min(rows, cols) < 0:
            raise ExactError("rows and cols must be nonnegative")
        return cls._keep([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, entries, rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        entries = list(entries)
        rows = len(entries) if rows is None else rows
        cols = len(entries) if cols is None else cols
        if len(entries) > min(rows, cols):
            raise ExactError("too many diagonal entries for the given shape")
        data = [[0] * cols for _ in range(rows)]
        for i, e in enumerate(entries):
            data[i][i] = e
        return cls(data, cols=cols)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def max_abs(self) -> int:
        return max((max(max(row), -min(row)) for row in self.data if row),
                   default=0)

    def transpose(self) -> "IntMatrix":
        data = ([list(col) for col in zip(*self.data)] if self.rows
                else [[] for _ in range(self.cols)])
        return IntMatrix._keep(data, self.rows, self.col_labels,
                               self.row_labels)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        data = [[self.data[i][j] for j in col_idx] for i in row_idx]
        rl = (tuple(self.row_labels[i] for i in row_idx)
              if self.row_labels is not None else None)
        cl = (tuple(self.col_labels[j] for j in col_idx)
              if self.col_labels is not None else None)
        return IntMatrix._keep(data, len(col_idx), rl, cl)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * v for v in row] for row in self.data],
                         cols=self.cols)

    def __matmul__(self, other: IntMatrix | np.ndarray) -> "IntMatrix":
        return IntMatrix(_product(self, other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape() == other.shape() and self.data == other.data

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"

    def pretty(self) -> str:
        """Fixed-width rendering, one matrix row per line."""
        if self.rows == 0 or self.cols == 0:
            return f"(empty {self.rows}x{self.cols})"
        text = [[_digits(v) for v in row] for row in self.data]
        width = max(len(v) for row in text for v in row)
        return "\n".join(" ".join(v.rjust(width) for v in row)
                         for row in text)

    def to_text(self) -> str:
        """Plain-text exchange format: 'rows cols' then one line per row."""
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(" ".join(map(_digits, row)) for row in self.data)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        lines = [[_read_int(tok) for tok in line.split()]
                 for line in text.splitlines()]
        if not lines:
            raise ExactError("empty matrix file")
        if len(lines[0]) != 2:
            raise ExactError("first line must be 'rows cols'")
        rows, cols = lines[0]
        if rows < 0 or cols < 0:
            raise ExactError("'rows cols' must be nonnegative")
        data, rest = lines[1:rows + 1], lines[rows + 1:]
        if (len(data) != rows or any(rest)
                or any(len(r) != cols for r in data)):
            raise ExactError("matrix body does not match declared shape")
        return cls(data, cols=cols)


def _as_array(m: IntMatrix | np.ndarray) -> np.ndarray:
    """m as an exact integer array, the one conversion from an IntMatrix.
    An IntMatrix, or an array of any integer or bool dtype, is int64 when
    every entry is below _INT64_CEILING in absolute value, and dtype object
    (Python ints) otherwise.  An object array passes if it holds Python
    ints; its bools and numpy integers become Python ints.  Other dtypes are
    refused: a float need not be an integer, and nothing is rounded."""
    import numpy as np
    if isinstance(m, IntMatrix):
        top, data, shape = m.max_abs(), m.data, (m.rows, m.cols)
    else:
        kind = m.dtype.kind
        if kind not in "biuO":
            raise ExactError(f"expected an integer array, got dtype {m.dtype}")
        if kind == "O":
            entries = m.ravel().tolist()
            if all(type(v) is int for v in entries):
                return m
            for v in entries:
                if not isinstance(v, (int, np.integer)):
                    raise ExactError("expected an integer array, got an object "
                                     f"array holding {type(v).__name__}")
            return np.array([int(v) for v in entries],
                            dtype=object).reshape(m.shape)
        # in Python ints: abs() of an int64 -2**63 overflows
        top = max(int(m.max(initial=0)), -int(m.min(initial=0)))
        data, shape = m, m.shape
    dtype = np.int64 if top < _INT64_CEILING else object
    return np.asarray(data, dtype=dtype).reshape(shape)


def _product(a: IntMatrix | np.ndarray, b: IntMatrix | np.ndarray) -> np.ndarray:
    """a @ b as an exact integer array.  cols * max|a| * max|b| bounds every
    partial sum of every dot product: below 2**53 they are all integers
    that float64 holds exactly, so BLAS multiplies (numpy's int64 product
    has no BLAS); below 2**62 the product is int64, and past that numpy
    multiplies Python ints (dtype object)."""
    import numpy as np
    a, b = _as_array(a), _as_array(b)
    if a.shape[1] != b.shape[0]:
        raise ExactError("shape mismatch in product")
    top = [max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in (a, b)]
    bound = a.shape[1] * top[0] * top[1]
    dtype = (np.float64 if bound < 1 << 53
             else np.int64 if bound < _INT64_CEILING else object)
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


def stack(parts) -> IntMatrix:
    """Vertical concatenation of matrices sharing a column count."""
    parts = list(parts)
    if not parts:
        raise ExactError("cannot stack zero matrices")
    cols = parts[0].cols
    if any(p.cols != cols for p in parts):
        raise ExactError("stacked parts must share the column count")
    data = [list(row) for p in parts for row in p.data]
    labels = (tuple(lbl for p in parts for lbl in p.row_labels)
              if all(p.row_labels is not None for p in parts) else None)
    col_labels = parts[0].col_labels
    if any(p.col_labels != col_labels for p in parts):
        col_labels = None
    return IntMatrix._keep(data, cols, labels, col_labels)


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm(NamedTuple):
    """Invariant factors d_1 | d_2 | ... | d_r plus optional transforms.

    When transforms are present, left @ M @ right equals the diagonal
    matrix of the invariant factors padded with zeros, and both transforms
    are unimodular.
    """

    invariant_factors: tuple[int, ...]
    rank: int
    left: IntMatrix | None = None
    right: IntMatrix | None = None

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        return IntMatrix.diagonal(self.invariant_factors, rows, cols)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _eliminate(a: list[list[int]], m: int, n: int) -> list[int]:
    """Diagonalize the leading m x n block of the list matrix a in place.

    Row operations act on whole rows of a and column operations on whole
    columns, so blocks appended to the right of the first m rows or below
    them ride along (smith_normal_form keeps its transforms there).  The
    rows below the block need only n entries.  Returns the invariant
    factors, the positive diagonal values in divisibility-chain order; the
    leading block is then zero off its diagonal.
    """
    diag: list[int] = []
    bezout = max(m, n) < _BEZOUT_BELOW
    t = 0
    while True:
        # pivot: an entry of least absolute value; a unit ends the search.
        # Past the last row or column none is found.
        best = bi = bj = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (not best or abs(v) < best):
                    best, bi, bj = abs(v), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            # the block is diagonal.  Where d_i first fails to divide
            # d_{i+1}, add row i + 1 to row i and eliminate again from t = i:
            # that keeps d_0 .. d_{i-1} and lowers d_i (its row now holds an
            # entry it does not divide), so the repairs end, in chain order.
            i = next((i for i in range(len(diag) - 1)
                      if diag[i + 1] % diag[i]), None)
            if i is None:
                return diag
            a[i] = [x + y for x, y in zip(a[i], a[i + 1])]
            del diag[i:]
            t = i
            continue
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            half = p >> 1
            # clear column t by row operations.  A nonzero remainder x is
            # smaller than the pivot: Euclid's step makes the smallest one
            # the pivot, the Bezout step makes gcd(p, x) = s*p + r*x the pivot
            best = br = 0
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    q = (v + half) // p
                    a[i] = row = [z - q * y for y, z in zip(a[t], a[i])]
                    x = row[t]
                    if x and bezout:
                        g, s, r = _xgcd(p, x)
                        u, v, top = p // g, x // g, a[t]
                        a[t] = [s * y + r * z for y, z in zip(top, row)]
                        a[i] = [u * z - v * y for y, z in zip(top, row)]
                        p, half = g, g >> 1
                    elif x and (not best or abs(x) < best):
                        best, br = abs(x), i
            if best:
                a[t], a[br] = a[br], a[t]
                continue
            # column t is clear, so column operations change only row t of
            # the block and the rows below it
            piv = a[t]
            touched = [piv] + a[m:]
            dirty = False
            for j in range(t + 1, n):
                v = piv[j]
                if v:
                    q = (v + half) // p
                    for row in touched:
                        row[j] -= q * row[t]
                    dirty = dirty or piv[j] != 0
            if not dirty:
                diag.append(p)
                t += 1
                break
            if not bezout:
                break  # re-pick the pivot: row t holds a smaller entry
            # the remainders go by Bezout steps of columns (a quotient
            # step where p | x).  The first one puts entries below the
            # pivot, so every step changes every row, and column t is
            # cleared again
            below = a[t:]
            for j in range(t + 1, n):
                x = piv[j]
                if x:
                    g, s, r = _xgcd(p, x) if x % p else (p, 1, 0)
                    u, v = p // g, x // g
                    for row in below:
                        y, z = row[t], row[j]
                        row[t], row[j] = s * y + r * z, u * z - v * y
                    p = g


def _list_factors(a: list[list[int]], rows: int, cols: int) -> list[int]:
    """The invariant factors of the rows x cols list matrix a, left as it
    was: past the gate of _MINORS_UP_TO by _eliminate on a copy, in it by
    the determinantal divisors D_i, the gcds of the i x i minors, which
    are d_1 ... d_i up to the rank (Newman, Integral Matrices, ch. II)."""
    size = min(rows, cols)
    if size > 3 or max(rows, cols) > _MINORS_UP_TO:
        return _eliminate([row[:] for row in a], rows, cols)
    vecs = list(zip(*a)) if rows <= cols else a  # of size entries each
    pairs = ((0, 1), (0, 2), (1, 2))[:2 * size - 3]  # at size 2 or 3
    out, last = [], 1
    for order in range(1, size + 1):
        if order == 1:
            div = gcd(*chain.from_iterable(a))
        elif order == 2:
            div = gcd(*[x[i] * y[j] - x[j] * y[i]
                        for x, y in combinations(vecs, 2) for i, j in pairs])
        else:
            div = gcd(*[x0 * (y1 * z2 - y2 * z1) - y0 * (x1 * z2 - x2 * z1)
                        + z0 * (x1 * y2 - x2 * y1) for (x0, x1, x2),
                        (y0, y1, y2), (z0, z1, z2) in combinations(vecs, 3)])
        if not div:  # D_order, 0 past the rank
            break
        out.append(div // last)
        last = div
    return out


def _diagonal_values(m: IntMatrix | np.ndarray) -> list[int]:
    """The invariant factors of m, an IntMatrix or integer array (see
    _as_array), positive and in divisibility-chain order.  Matrices with
    fewer than _LIST_LANE_BELOW rows or columns go to the list lane; any
    other one to the valence lane (valence.valence_finish), and to
    _eliminate if that refuses it.
    """
    if isinstance(m, IntMatrix) and min(m.rows, m.cols) < _LIST_LANE_BELOW:
        return _list_factors(m.data, m.rows, m.cols)
    m = _as_array(m)
    if min(m.shape) < _LIST_LANE_BELOW:
        return _list_factors(m.tolist(), *m.shape)
    from .valence import valence_finish
    diag = valence_finish(m)
    return diag if diag is not None else _eliminate(m.tolist(), *m.shape)


def smith_normal_form(m: IntMatrix | np.ndarray,
                      with_transforms: bool = False) -> SmithForm:
    """The unique nonnegative divisibility-chain diagonal form of m.

    m is an IntMatrix or an integer array (see _as_array).  With
    transforms, also returns unimodular left (rows x rows) and right
    (cols x cols) with left @ m @ right equal to the padded diagonal.
    """
    if not with_transforms:
        diag = _diagonal_values(m)
        return SmithForm(tuple(diag), len(diag))
    m = m if isinstance(m, IntMatrix) else IntMatrix(m)
    rows, cols = m.rows, m.cols
    # reduce [m | I] stacked over [I]: the row operations build the left
    # transform beside m, the column operations the right one below it
    a = [list(row) + [int(i == j) for j in range(rows)]
         for i, row in enumerate(m.data)]
    a += [[int(i == j) for j in range(cols)] for i in range(cols)]
    diag = _eliminate(a, rows, cols)
    return SmithForm(tuple(diag), len(diag),
                     left=IntMatrix._keep([row[cols:] for row in a[:rows]], rows),
                     right=IntMatrix._keep(a[rows:], cols))


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


# JSON lists every invariant factor; past this many it refuses instead of
# building a list that grows with C(n,k).  The text form prints runs at any size.
_JSON_FACTOR_CAP = 10 ** 7


class _AbelianGroupFields(NamedTuple):
    runs: tuple[tuple[int, int], ...] = ()
    free_rank: int = 0


class AbelianGroup(_AbelianGroupFields):
    """Canonical form: runs (d, m) of m invariant factors equal to d, with
    the d > 1 strictly increasing in a divisibility chain, and a free rank.

    A run stands for its m factors without listing them, so a group costs
    the same at any multiplicity.
    """

    __slots__ = ()

    def __new__(cls, runs=(), free_rank=0):
        try:  # refused, not rounded, like IntMatrix entries
            runs = tuple((index(d), index(m)) for d, m in runs)
            free_rank = index(free_rank)
        except TypeError as exc:
            raise ExactError(f"a group needs integers: {exc}") from None
        if any(d <= 1 for d, _ in runs):
            raise ExactError("invariant factors must all exceed 1")
        if any(m < 1 for _, m in runs):
            raise ExactError("run lengths must be positive")
        if any(b == a or b % a for (a, _), (b, _) in zip(runs, runs[1:])):
            raise ExactError("run values must strictly increase in a "
                             "divisibility chain")
        if free_rank < 0:
            raise ExactError("free rank must be nonnegative")
        return super().__new__(cls, runs, free_rank)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    def _factor_list(self) -> list[int]:
        out: list[int] = []
        for d, m in self.runs:
            out += [d] * m
        return out

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Every invariant factor, smallest first: one item per factor."""
        return tuple(self._factor_list())

    def is_trivial(self) -> bool:
        return not self.runs and self.free_rank == 0

    def order(self) -> int:
        """Order of the torsion part."""
        return prod(d ** m for d, m in self.runs)

    def __str__(self) -> str:
        terms = [f"Z/{_digits(d)}" if m == 1
                 else f"(Z/{_digits(d)})^{_digits(m)}" for d, m in self.runs]
        if self.free_rank:
            terms.append("Z" if self.free_rank == 1
                         else f"Z^{_digits(self.free_rank)}")
        return " + ".join(terms) if terms else "0"

    def to_json_dict(self) -> dict:
        count = sum(m for _, m in self.runs)
        if count > _JSON_FACTOR_CAP:
            raise ExactError(
                f"the group has {count} invariant factors, more than the "
                f"{_JSON_FACTOR_CAP} that JSON output lists; the text output "
                "prints them as runs")
        return {"invariant_factors": self._factor_list(),
                "free_rank": self.free_rank}

    @classmethod
    def from_json_dict(cls, d: dict) -> "AbelianGroup":
        values = [*d["invariant_factors"], d["free_rank"]]
        for v in values:  # int() would truncate 2.9 and read "4" or True
            if not isinstance(v, int) or isinstance(v, bool):
                raise ExactError(f"group JSON holds a non-integer {v!r}")
        return group_from_diagonal([(v, 1) for v in values[:-1]]
                                   + [(0, values[-1])])


def group_from_smith(snf: SmithForm, ambient_cols: int) -> AbelianGroup:
    """Smith group Z^cols / row span, given the SNF of the relation matrix."""
    runs = tuple((d, sum(1 for _ in same))
                 for d, same in groupby(snf.invariant_factors) if d != 1)
    return AbelianGroup(runs, ambient_cols - snf.rank)


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 such that every value is a product of
    powers of them: factor refinement (Bach, Driscoll and Shallit 1993).

    Only gcds are taken, so a value with two large prime factors costs no
    more than a small one.  Values go smallest first, and each is stripped
    of the base elements that divide it.  A split replaces b and x by
    g = gcd(b, x) > 1, b/g and x/g, so the product held drops, and ends.
    """
    base: list[int] = []
    todo = sorted((v for v in values if v > 1), reverse=True)
    while todo:
        x = todo.pop()
        for idx, b in enumerate(base):
            while x % b == 0:
                x //= b
            g = gcd(b, x)
            if g > 1:
                # b is coprime to the rest of the base, and so are its parts
                del base[idx]
                todo.extend(d for d in (g, b // g, x // g) if d > 1)
                break
        else:
            if x > 1:
                base.append(x)
    return base


def group_from_diagonal(entries) -> AbelianGroup:
    """Canonicalize a multiset of diagonal entries given as (value, multiplicity).

    Zeros contribute to the free rank, signs are ignored, and +-1 entries
    are dropped.  The rest is written over a coprime base, and the powers
    of each base element are zipped largest-first into invariant factors,
    as prime powers would be: the primes of one base element all share its
    exponent pattern.  Exponents are kept as (exponent, count) runs and
    zipped a run at a time, so the work grows with the number of distinct
    values, never with the multiplicities.
    """
    free = 0
    counts: dict[int, int] = {}
    for value, mult in entries:
        if mult < 0:
            raise ExactError("multiplicities must be nonnegative")
        v = abs(value)
        if v == 0:
            free += mult
        elif v > 1 and mult:
            counts[v] = counts.get(v, 0) + mult
    # per base element, its [exponent, count] runs, largest exponent last
    stacks = []
    for b in _coprime_base(counts):
        by_exp: dict[int, int] = {}
        for v, mult in counts.items():
            e = 0
            while v % b == 0:
                v //= b
                e += 1
            if e:
                by_exp[e] = by_exp.get(e, 0) + mult
        stacks.append((b, [list(run) for run in sorted(by_exp.items())]))
    # each step takes the next `step` largest factors, where every base
    # element keeps its exponent; then at least one run ends, so the next
    # factor is a proper divisor of this one
    runs = []
    while stacks:
        step = min(stack[-1][1] for _, stack in stacks)
        runs.append((prod(b ** stack[-1][0] for b, stack in stacks), step))
        for _, stack in stacks:
            stack[-1][1] -= step
            if not stack[-1][1]:
                stack.pop()
        stacks = [(b, stack) for b, stack in stacks if stack]
    runs.reverse()
    return AbelianGroup(tuple(runs), free)
