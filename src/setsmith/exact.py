"""Exact integer matrices, Smith normal form, and abelian group invariants.

Everything here is exact.  The Smith reduction has two lanes.  A matrix
with fewer than _LIST_LANE_BELOW rows or columns (every M_s block), or
with an entry of 2**62 or more, is reduced on lists of Python integers,
which cannot overflow.  Any other one (the dense oracle's matrices,
handed over as int64 arrays) goes to the valence lane
(setsmith.valence), which works modulo word-size
moduli bounded by the valence of the matrix, or of its Gram matrix when
it is not square, and checks its minimal polynomial exactly.  A matrix
the valence lane refuses is reduced on the list lane.  Both lanes return
the invariant factors, in divisibility-chain order.  Transforms are always
computed on the list lane.  Matrix products take float64 or int64 only
when no partial sum can be rounded or overflow.

numpy and setsmith.valence load on first dense use: only the functions
that build or reduce an array import them, so the block reduction, group
assembly and JSON output run without either.  Importing numpy takes
hundreds of times as long as a block query.
"""

from __future__ import annotations

import sys
from math import gcd, prod
from itertools import groupby
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# The valence lane takes int64 input with every entry below this, so that
# every entry and its absolute value fit, and refuses a non-square r x c
# matrix (r <= c) unless c * max|entry|**2, a bound on every entry of its
# Gram matrix, is below it too.
_INT64_CEILING = 1 << 62

# Matrices with fewer rows or columns than this skip the valence lane.
# Median times per square matrix, list lane against valence lane (2-vCPU
# VM, Python 3.11, numpy on one thread): on scheme elements with
# two-digit coefficients, 0.13 against 0.41 ms at 12 columns, 0.42
# against 0.56 ms at 20, about even at 21 to 24, and 1.43 against 0.80 ms
# at 32; on random matrices with entries in -9..9, 0.25 against 3.8 ms at
# 12, and from 20 columns on, where every one is refused at the Krylov
# degree cap, the list lane's time plus 0.6-0.7 ms.  So the M_s blocks
# (at most (k+1)x(k+1)) take the list lane, and dense matrices of 20 or
# more columns and rows the valence lane.
_LIST_LANE_BELOW = 20


class ExactError(ValueError):
    """Precondition violation in an exact-linear-algebra operation."""


class ConstructionError(RuntimeError):
    """A construction whose success is guaranteed by theory failed."""


class IntMatrix:
    """Dense integer matrix with optional subsets labelling rows/columns.
    data is a sequence of rows, or a 2-D integer array (converted once)."""

    __slots__ = ("rows", "cols", "data", "row_labels", "col_labels")

    def __init__(self, data, row_labels=None, col_labels=None,
                 cols: int | None = None):
        # no array can exist before numpy is loaded
        np = sys.modules.get("numpy")
        if np is not None and isinstance(data, np.ndarray):
            data = _integer_array(data)
            rows, cols = data.shape
            data = data.tolist()
        else:
            data = [list(row) for row in data]
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
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, entries, rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        entries = list(entries)
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries)
        if len(entries) > min(rows, cols):
            raise ExactError("too many diagonal entries for the given shape")
        out = cls.zeros(rows, cols)
        for i, e in enumerate(entries):
            out.data[i][i] = e
        return out

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def max_abs(self) -> int:
        return max((max(max(row), -min(row)) for row in self.data if row),
                   default=0)

    def transpose(self) -> "IntMatrix":
        out = IntMatrix(zip(*self.data) if self.rows else [[]] * self.cols,
                        cols=self.rows)
        out.row_labels = self.col_labels
        out.col_labels = self.row_labels
        return out

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        data = [[self.data[i][j] for j in col_idx] for i in row_idx]
        rl = (tuple(self.row_labels[i] for i in row_idx)
              if self.row_labels is not None else None)
        cl = (tuple(self.col_labels[j] for j in col_idx)
              if self.col_labels is not None else None)
        return IntMatrix(data, row_labels=rl, col_labels=cl, cols=len(col_idx))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * v for v in row] for row in self.data],
                         cols=self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
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
        width = max(len(str(v)) for row in self.data for v in row)
        return "\n".join(" ".join(f"{v:>{width}}" for v in row)
                         for row in self.data)

    def to_text(self) -> str:
        """Plain-text exchange format: 'rows cols' then one line per row."""
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(" ".join(str(v) for v in row) for row in self.data)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        try:
            lines = [[int(tok) for tok in line.split()]
                     for line in text.splitlines()]
        except ValueError as exc:
            raise ExactError(f"matrix file holds a non-integer token ({exc})") from None
        if not lines:
            raise ExactError("empty matrix file")
        if len(lines[0]) != 2:
            raise ExactError("first line must be 'rows cols'")
        rows, cols = lines[0]
        if rows < 0 or cols < 0:
            raise ExactError("'rows cols' must be nonnegative")
        data = []
        for line in lines[1:]:
            if not line and len(data) >= rows:
                continue
            data.append(line)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ExactError("matrix body does not match declared shape")
        if rows == 0:
            return cls.zeros(0, cols)
        return cls(data)


def _integer_array(a: np.ndarray) -> np.ndarray:
    """a, if its dtype is a 64-bit integer, or object holding Python ints; a
    bool or narrower integer array as int64, which the valence lane takes;
    an object array of bools and numpy integers as one of Python ints.  Any
    other array is refused: a float or complex entry need not be an
    integer, and the reduction does no rounding."""
    kind = a.dtype.kind
    if kind not in "biuO":
        raise ExactError(f"expected an integer array, got dtype {a.dtype}")
    if kind != "O":
        return a.astype("int64") if a.dtype.itemsize < 8 else a
    entries = a.ravel().tolist()
    if all(type(v) is int for v in entries):
        return a
    np = sys.modules["numpy"]
    for v in entries:
        if not isinstance(v, (int, np.integer)):
            raise ExactError("expected an integer array, got an object array "
                             f"holding {type(v).__name__}")
    return np.array([int(v) for v in entries], dtype=object).reshape(a.shape)


def _product(a: IntMatrix, b: IntMatrix) -> np.ndarray:
    """a @ b as an exact integer array.  cols * max|a| * max|b| bounds every
    partial sum of every dot product: below 2**53 they are all integers
    that float64 holds exactly, so BLAS multiplies (numpy's int64 product
    has no BLAS); below 2**62 the product is int64, and past that numpy
    multiplies Python ints (dtype object)."""
    if a.cols != b.rows:
        raise ExactError("shape mismatch in product")
    import numpy as np
    bound = a.cols * a.max_abs() * b.max_abs()
    if not bound:  # a factor with no nonzero entry, or no entries
        return np.zeros((a.rows, b.cols), dtype=np.int64)
    if bound < 1 << 53:
        return (np.array(a.data, dtype=np.float64)
                @ np.array(b.data, dtype=np.float64)).astype(np.int64)
    dtype = np.int64 if bound < _INT64_CEILING else object
    return np.array(a.data, dtype=dtype) @ np.array(b.data, dtype=dtype)


def stack(parts) -> IntMatrix:
    """Vertical concatenation of matrices sharing a column count."""
    parts = list(parts)
    if not parts:
        raise ExactError("cannot stack zero matrices")
    cols = parts[0].cols
    if any(p.cols != cols for p in parts):
        raise ExactError("stacked parts must share the column count")
    data = []
    for p in parts:
        data.extend(list(row) for row in p.data)
    labels = None
    if all(p.row_labels is not None for p in parts):
        labels = tuple(lbl for p in parts for lbl in p.row_labels)
    col_labels = parts[0].col_labels
    if any(p.col_labels != col_labels for p in parts):
        col_labels = None
    return IntMatrix(data, row_labels=labels, col_labels=col_labels, cols=cols)


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
            piv = a[t]
            p = piv[t]
            half = p >> 1
            # clear column t by row operations; a nonzero remainder is
            # smaller than the pivot, so the smallest one becomes the pivot
            best = br = 0
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    q = (v + half) // p
                    a[i] = row = [x - q * y for x, y in zip(a[i], piv)]
                    if row[t] and (not best or abs(row[t]) < best):
                        best, br = abs(row[t]), i
            if best:
                a[t], a[br] = a[br], a[t]
                continue
            # column t is clear, so column operations change only row t of
            # the block and the rows below it
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
            break  # next pivot, or re-pick this one: row t holds a smaller entry


def _diagonal_values(m: IntMatrix | np.ndarray) -> list[int]:
    """The invariant factors of m, positive and in divisibility-chain
    order, from either lane.

    m is an IntMatrix, or a numpy array of an integer dtype (see
    _integer_array).  Matrices with fewer than _LIST_LANE_BELOW rows or
    columns, and those with an entry at or above _INT64_CEILING, go to the
    list lane.  Any other int64 one goes to the valence lane
    (valence.valence_finish), and one it refuses goes to the list lane too.
    """
    if isinstance(m, IntMatrix):
        if (min(m.rows, m.cols) < _LIST_LANE_BELOW
                or m.max_abs() >= _INT64_CEILING):
            return _eliminate([list(row) for row in m.data], m.rows, m.cols)
        # numpy and valence load on first dense use (module docstring)
        import numpy as np
        m = np.array(m.data, dtype=np.int64)
    else:
        m = _integer_array(m)
    if (m.dtype == "int64" and min(m.shape) >= _LIST_LANE_BELOW
            and abs(m).max() < _INT64_CEILING):
        from .valence import valence_finish
        diag = valence_finish(m)
        if diag is not None:
            return diag
    return _eliminate(m.tolist(), *m.shape)


def smith_normal_form(m: IntMatrix | np.ndarray,
                      with_transforms: bool = False) -> SmithForm:
    """The unique nonnegative divisibility-chain diagonal form of m.

    Without transforms, m may also be a numpy array (see _diagonal_values).
    With transforms, also returns unimodular left (rows x rows) and right
    (cols x cols) with left @ m @ right equal to the padded diagonal.
    """
    if not with_transforms:
        diag = _diagonal_values(m)
        return SmithForm(tuple(diag), len(diag))
    rows, cols = m.rows, m.cols
    # reduce [m | I] stacked over [I]: the row operations build the left
    # transform beside m, the column operations the right one below it
    a = [list(row) + [int(i == j) for j in range(rows)]
         for i, row in enumerate(m.data)]
    a += [[int(i == j) for j in range(cols)] for i in range(cols)]
    diag = _eliminate(a, rows, cols)
    return SmithForm(tuple(diag), len(diag),
                     left=IntMatrix([row[cols:] for row in a[:rows]], cols=rows),
                     right=IntMatrix(a[rows:], cols=cols))


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
        runs = tuple((d, m) for d, m in runs)
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
        terms = [f"Z/{d}" if m == 1 else f"(Z/{d})^{m}" for d, m in self.runs]
        if self.free_rank:
            terms.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
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
    more than a small one.  Each split replaces b and x by g = gcd(b, x),
    b/g and x/g, so the product of all numbers held drops by g > 1 and the
    loop ends.
    """
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for idx, b in enumerate(base):
            g = gcd(b, x)
            if g > 1:
                # b is coprime to the rest of the base, and so are its parts
                del base[idx]
                todo.extend(d for d in (g, b // g, x // g) if d > 1)
                break
        else:
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
