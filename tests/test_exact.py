import random
import re
from itertools import combinations, count, groupby
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from setsmith.exact import (_BEZOUT_BELOW, _INT64_CEILING, _LIST_LANE_BELOW,
                            _MINORS_UP_TO, AbelianGroup, _as_array,
                            ExactError, IntMatrix, SmithForm, _coprime_base,
                            _eliminate, _list_factors,
                            group_from_diagonal, group_from_smith,
                            smith_normal_form, stack)
from setsmith import proof
from setsmith.oracle import _scheme_array, scheme_element_matrix
from setsmith.proof import (_bareiss_det, gcd_minors, index, is_unimodular,
                            unimodular_completion, unimodular_inverse)
from setsmith.scheme import SchemeParams, degree, eigenvalues, smith_group
from setsmith import valence
from setsmith.valence import (_annihilates, _diagonal_mod, _gcd_table,
                              _primes, _rank_prime, _trial_division,
                              valence_finish)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    if rows == 0:
        return IntMatrix.zeros(0, cols)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


def test_snf_padded_diagonal_example():
    m = IntMatrix([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 0]])
    snf = smith_normal_form(m)
    assert snf.invariant_factors == (1, 6)
    assert snf.rank == 2
    assert index(m) == 6
    assert group_from_smith(snf, 4) == AbelianGroup(((6, 1),), 2)


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(5))
    assert snf.invariant_factors == (1,) * 5


def test_snf_dependent_rows():
    snf = smith_normal_form(IntMatrix([[2, 4], [4, 8]]))
    assert snf.invariant_factors == (2,)
    assert snf.rank == 1


def test_snf_empty_and_zero():
    for m in [IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0), IntMatrix.zeros(3, 3)]:
        snf = smith_normal_form(m)
        assert snf.rank == 0
        assert snf.invariant_factors == ()
        assert index(m) == 1
    assert group_from_smith(smith_normal_form(IntMatrix.zeros(2, 5)), 5) \
        == AbelianGroup((), 5)
    for shape in ((2, -1), (-1, 2)):
        with pytest.raises(ExactError, match="nonnegative"):
            IntMatrix.zeros(*shape)


def test_snf_divisibility_chain_random():
    rng = random.Random(1)
    for _ in range(400):
        m = rand_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        f = smith_normal_form(m).invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
        assert all(d > 0 for d in f)


def test_snf_transforms_random():
    rng = random.Random(2)
    for _ in range(300):
        rows, cols = rng.randint(0, 8), rng.randint(1, 8)
        m = rand_matrix(rng, rows, cols)
        snf = smith_normal_form(m, with_transforms=True)
        assert snf.left @ m @ snf.right == snf.diagonal_matrix(rows, cols)
        if rows:
            assert abs(_bareiss_det(snf.left.data)) == 1
        assert abs(_bareiss_det(snf.right.data)) == 1
        assert smith_normal_form(m).invariant_factors == snf.invariant_factors


def _minor_factors(m):
    """The invariant factors by their definition: d_k = D_k / D_{k-1}, with
    D_k the gcd of the k x k minors, up to the first D_k that is 0."""
    out, prev = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = gcd_minors(m, k)
        if not g:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


# diagonals with an entry that does not divide the next one (coprime pairs
# and triples among them), which the pivot loop leaves out of chain order
_OUT_OF_CHAIN = [(2, 3), (3, 2), (6, 10, 15), (15, 10, 6), (4, 9, 25, 49),
                 (5, 7, 1, 3), (12, 18, 8), (2, 0, 3)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["diagonal", "triangular", "random"]),
       diag=st.one_of(st.sampled_from(_OUT_OF_CHAIN),
                      st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 9, 10,
                                                14, 15, 21, 35]),
                               min_size=2, max_size=5)),
       extra_rows=st.integers(0, 1), extra_cols=st.integers(0, 1),
       seed=st.integers(0, 2 ** 32))
def test_eliminate_returns_the_invariant_factors(kind, diag, extra_rows,
                                                 extra_cols, seed):
    # a diagonal or upper-triangular block with the diagonal diag, padded
    # by a zero row or column, or a random matrix; _eliminate itself must
    # return the chain, and its transforms must reach it
    rng = random.Random(seed)
    rows, cols = len(diag) + extra_rows, len(diag) + extra_cols
    if kind == "random":
        m = rand_matrix(rng, rows, cols, -30, 30)
    else:
        m = IntMatrix.diagonal(diag, rows, cols)
        if kind == "triangular":
            for i in range(len(diag)):
                for j in range(i + 1, cols):
                    m.data[i][j] = rng.randint(-12, 12)
    want = _minor_factors(m)
    assert _eliminate([list(row) for row in m.data], rows, cols) == list(want)
    snf = smith_normal_form(m, with_transforms=True)
    assert snf.invariant_factors == want and snf.rank == len(want)
    assert snf.left @ m @ snf.right == snf.diagonal_matrix(rows, cols)
    assert abs(_bareiss_det(snf.left.data)) == 1
    assert abs(_bareiss_det(snf.right.data)) == 1


def _random_unimodular(rng, n):
    """A product of random elementary row operations with small multipliers."""
    data = IntMatrix.identity(n).data
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-3, 3)
            data[i] = [x + c * y for x, y in zip(data[i], data[j])]
        if rng.random() < 0.2:
            data[i] = [-x for x in data[i]]
    return IntMatrix(data)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(0, 0), (0, 4)] + [
           (r, c) for r in (1, 2, 3) for c in range(r, _MINORS_UP_TO + 1)]),
       tall=st.booleans(),
       kind=st.sampled_from(["rank", "full", "triangular", "rank"]),
       rank=st.integers(0, 3), bits=st.sampled_from([3, 20, 70, 130]),
       zero_row=st.booleans(), zero_col=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_minors_match_eliminate_in_their_gate(shape, tall, kind, rank, bits,
                                              zero_row, zero_col, seed):
    # every shape that _list_factors answers by the gcds of its minors, both
    # ways round: full, upper triangular, or a product of rank at most
    # `rank` scaled by a common factor; negative entries, entries past
    # 2**64, and a zero row or column
    rng = random.Random(seed)
    rows, cols = shape[::-1] if tall else shape
    top = 2 ** bits
    if kind == "rank":
        rank = min(rank, rows, cols)
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
        scale = rng.randint(1, top)
        a = [[scale * sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
             if rank else [0] * cols for row in left]
    else:
        a = [[rng.randint(-top, top) if kind == "full" or i <= j else 0
              for j in range(cols)] for i in range(rows)]
    if zero_row and rows:
        a[rng.randrange(rows)] = [0] * cols
    if zero_col and cols:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    before = [row[:] for row in a]
    want = _eliminate([row[:] for row in a], rows, cols)
    assert _list_factors(a, rows, cols) == want
    assert a == before
    assert tuple(want) == _minor_factors(IntMatrix(a, cols=cols))


def test_the_minor_gate_goes_by_shape(monkeypatch):
    # within the gate no matrix reaches _eliminate, given as an IntMatrix or
    # as an array; past it, and for transforms, every one does; so do none
    # of the blocks of k <= 2, square (3 x 3 at most) or 2 x 3 (3 x 4)
    calls = []
    eliminate = _eliminate

    def spy(a, m, n):
        calls.append((m, n))
        return eliminate(a, m, n)

    from setsmith import exact
    monkeypatch.setattr(exact, "_eliminate", spy)
    rng = random.Random(5)
    shapes = [(1, 1), (1, 6), (6, 1), (2, 6), (3, 6), (6, 3), (3, 7), (7, 2),
              (4, 4), (0, 3), (3, 0)]
    for rows, cols in shapes:
        m = rand_matrix(rng, rows, cols)
        array = np.array(m.data, dtype=np.int64).reshape(rows, cols)
        assert smith_normal_form(m) == smith_normal_form(array)
    assert calls == [(3, 7), (3, 7), (7, 2), (7, 2), (4, 4), (4, 4)]
    calls.clear()
    smith_normal_form(rand_matrix(rng, 2, 3), with_transforms=True)
    assert calls == [(2, 3)]
    calls.clear()
    for p in (SchemeParams(5, 1, 1, 0), SchemeParams(10 ** 30, 2, 2, 1),
              SchemeParams(9, 2, 3, 1)):
        smith_group(p, None, 0)
    assert calls == []


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(side=st.integers(1, 24), other=st.integers(1, 24), flip=st.booleans(),
       bound=st.sampled_from([1, 9, 2 ** 20, 2 ** 30, 2 ** 40, 2 ** 61,
                              2 ** 62 - 1]),
       density=st.sampled_from([0.3, 1.0]), seed=st.integers(0, 2 ** 32))
def test_snf_properties_across_lanes(side, other, flip, bound, density, seed):
    # the smaller side is drawn uniformly, so shapes fall on both sides of
    # _LIST_LANE_BELOW; every matrix of 20 or more rows and columns reaches
    # the valence lane, entries near 2**62 included, and the Gram matrix
    # of a non-square one is then taken in Python ints
    assert 1 < _LIST_LANE_BELOW <= 24
    rng = random.Random(seed)
    rows, cols = side, max(side, other)
    if flip:
        rows, cols = cols, rows
    m = IntMatrix([[rng.randint(-bound, bound) if rng.random() < density else 0
                    for _ in range(cols)] for _ in range(rows)])
    f = smith_normal_form(m).invariant_factors
    assert all(d > 0 for d in f)
    assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    if rows == cols:
        det = _bareiss_det(m.data)
        assert (len(f) == rows) == (det != 0)
        if det:
            assert prod(f) == abs(det)
    mixed = _random_unimodular(rng, rows) @ m @ _random_unimodular(rng, cols)
    assert smith_normal_form(mixed).invariant_factors == f


_SMOOTH = [0, 1, 2, 3, 4, 6, 8, 9, 12, 27, 35]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, _BEZOUT_BELOW + 2),
       cols=st.integers(1, _BEZOUT_BELOW + 2), square=st.booleans(),
       kind=st.sampled_from(["full", "singular", "triangular", "zero rows"]),
       smooth=st.booleans(), scale=st.sampled_from([1, 6, 2 ** 89 + 1]),
       seed=st.integers(0, 2 ** 32))
def test_bezout_step_matches_the_euclid_step(rows, cols, square, kind, smooth,
                                             scale, seed):
    # _eliminate takes one Bezout step per entry on blocks of fewer than
    # _BEZOUT_BELOW rows and columns; padded by zero rows up to that size,
    # the same matrix has the same invariant factors and takes Euclid's
    # rounded quotients.  Entries rich in small primes (smooth), and a
    # common scale, give chains of factors past 1, up to 2**100
    rng = random.Random(seed)
    cols = rows if square else cols
    data = [[(rng.randint(-9, 9) * rng.choice(_SMOOTH) if smooth
              else rng.randint(-2 ** 11, 2 ** 11)) * scale
             for _ in range(cols)] for _ in range(rows)]
    if kind == "singular" and rows > 1:
        # a combination of rows 0 and -2, a multiple of row 0 at two rows
        c, d = rng.randint(-3, 3), rng.randint(-3, 3)
        data[-1] = [c * x + d * y for x, y in zip(data[0], data[-2])]
    elif kind == "triangular":
        for i, row in enumerate(data):
            row[:min(i, cols)] = [0] * min(i, cols)
    elif kind == "zero rows":
        for i in rng.sample(range(rows), (rows + 1) // 2):
            data[i] = [0] * cols
    pad = max(_BEZOUT_BELOW - rows, 0)
    padded = [row[:] for row in data] + [[0] * cols for _ in range(pad)]
    euclid = _eliminate(padded, rows + pad, cols)
    assert _eliminate([row[:] for row in data], rows, cols) == euclid
    if max(rows, cols) <= 4:
        assert tuple(euclid) == _minor_factors(IntMatrix(data))
    # the riders: the transforms reach the same diagonal
    m = IntMatrix(data)
    snf = smith_normal_form(m, with_transforms=True)
    assert snf.invariant_factors == tuple(euclid)
    assert snf.left @ m @ snf.right == snf.diagonal_matrix(rows, cols)
    assert abs(_bareiss_det(snf.left.data)) == 1
    assert abs(_bareiss_det(snf.right.data)) == 1


def _ceiling_case(corner, lower):
    """[[1, 2**30], [2**30, corner]] beside the square block lower.  The
    pivot is the 1, and its one row update subtracts 2**30 * 2**30 from
    corner, the largest |entry|, so it lands at corner - 2**60."""
    size = 2 + len(lower)
    data = [[0] * size for _ in range(size)]
    data[0][:2] = [1, 2 ** 30]
    data[1][:2] = [2 ** 30, corner]
    for i, row in enumerate(lower):
        data[2 + i][2:] = row
    return IntMatrix(data)


def _chain(values):
    """The invariant factors, units included, of the diagonal matrix with
    the positive entries values, in whatever order they come."""
    values = list(values)
    factors = group_from_diagonal((v, 1) for v in values).invariant_factors
    return (1,) * (len(values) - len(factors)) + factors


def _array(m):
    return np.array(m.data, dtype=np.int64)


def _lane_factors(m):
    """Factors of m on the list lane alone, and through smith_normal_form,
    and from the valence lane where it answers; all must be the same
    chain, of product |det m|."""
    f = _chain(_eliminate([list(row) for row in m.data], m.rows, m.cols))
    assert smith_normal_form(m).invariant_factors == f
    rest = valence_finish(_array(m))
    assert rest is None or _chain(rest) == f
    assert prod(f) == abs(_bareiss_det(m.data)) != 0
    return f


def _fibonacci_chain():
    """Rows (a, 2**16) and (b, -2**16) with consecutive Fibonacci numbers
    a < b near 2**45, the least entries, beside a diagonal: eliminating
    on the pivot a runs a Euclidean chain of about 30 row updates, each
    multiplying the second column by about 2.6."""
    a, b = 1, 2
    for _ in range(64):
        a, b = b, a + b
    data = [[0] * 20 for _ in range(20)]
    data[0][:2] = [a, 2 ** 16]
    data[1][:2] = [b, -(2 ** 16)]
    for i in range(2, 20):
        data[i][i] = b + i
    return IntMatrix(data)


def _valence_offers(monkeypatch):
    """The matrices smith_normal_form offers to the valence lane, each as
    (dtype name, entries)."""
    import setsmith.valence
    offered, finish = [], setsmith.valence.valence_finish

    def record(a):
        offered.append((a.dtype.name, a.tolist()))
        return finish(a)
    monkeypatch.setattr(setsmith.valence, "valence_finish", record)
    return offered


def test_int64_lane_hands_off_at_the_ceiling(monkeypatch):
    # entries of 2**60 to 2**62 beside a small block, where eliminating on
    # the 1 sets entry (1, 1) to -2**62, or to one above it: below the
    # ceiling the valence lane is offered the matrix in int64, and at it
    # in Python ints; either way the factors are exact
    offered = _valence_offers(monkeypatch)
    rng = random.Random(5)
    lower = [[rng.choice([-9, -5, -2, 0, 2, 3, 7]) for _ in range(18)]
             for _ in range(18)]
    below = [_ceiling_case(-3 * 2 ** 60, lower),
             _ceiling_case(-3 * 2 ** 60 + 1,
                           _diag([2 + 3 * i for i in range(18)]))]
    for m in below:
        assert m.cols >= _LIST_LANE_BELOW and m.max_abs() < _INT64_CEILING
        _lane_factors(m)
    assert offered == [("int64", m.data) for m in below]
    at = _ceiling_case(-_INT64_CEILING, lower)
    assert at.max_abs() == _INT64_CEILING
    _lane_factors(at)
    assert offered[2:] == [("object", at.data)]
    # -2**63 fits int64, but its absolute value does not
    low = _ceiling_case(-2 ** 63, lower)
    f = smith_normal_form(low)
    assert smith_normal_form(_array(low)) == f
    assert f.invariant_factors == _chain(
        _eliminate([list(row) for row in low.data], low.rows, low.cols))
    assert offered[3:] == [("object", low.data)] * 2


def test_int64_lane_bound_follows_a_long_chain_on_one_pivot(monkeypatch):
    # an entry growth of about 2**40 on one pivot, from entries below
    # 2**47: the int64 lane is offered it, and neither lane wraps
    offered = _valence_offers(monkeypatch)
    m = _fibonacci_chain()
    assert m.max_abs() < 2 ** 47
    _lane_factors(m)
    assert offered == [("int64", m.data)]


def _with_unit_pair(lower, width=None):
    """[[1, 2**31], [2**31, 2**62 - 1]], of determinant -1, beside the
    block lower: an entry just below the ceiling, and in any non-square
    shape a Gram bound far past it."""
    width = width or len(lower)
    data = [[0] * (2 + width) for _ in range(2 + len(lower))]
    data[0][:2] = [1, 2 ** 31]
    data[1][:2] = [2 ** 31, 2 ** 62 - 1]
    for i, row in enumerate(lower):
        data[2 + i][2:2 + len(row)] = row
    return IntMatrix(data)


def _diag(values):
    return [[v * (i == j) for j in range(len(values))]
            for i, v in enumerate(values)]


def _nilpotent_corner(size):
    """diag(2, 3, 2, 3, ...) with a nilpotent [[0, 2], [0, 0]] in the
    corner: not symmetric, and x^2 divides its minimal polynomial."""
    data = _diag([2 + i % 2 for i in range(size)])
    data[0][0], data[0][1], data[1][1] = 0, 2, 0
    return data


# the first prime of a Krylov sequence on 20 x 20 matrices
_FIRST_PRIME = _primes(20, 1)[0]

# each fallback: a matrix the valence lane refuses, so the list lane
# reduces all of it.  Entries near 2**800 give a coefficient bound past
# the product of 64 primes; eigenvalues 2 and 2 + _FIRST_PRIME meet modulo
# the first prime only, so the second gives a Krylov polynomial of
# another degree
_REFUSED = {
    "x^2 divides mu": _with_unit_pair(_nilpotent_corner(18)),
    "degree over the cap": _with_unit_pair(_diag(range(2, 20))),
    "more than 64 primes": _with_unit_pair(
        _diag([2 ** 800 + i % 2 for i in range(18)])),
    "Krylov degrees differ": _with_unit_pair(_diag([2, 2 + _FIRST_PRIME] * 9)),
}

# matrices past int64 arithmetic, which the valence lane answers: a Gram
# matrix with entries past 2**62, a modulus 2**31 worked on in Python ints,
# and a valence 65537 * 65539, which trial division below 2**16 leaves
# whole as a cofactor, so one modulus, composite, on Python ints
_PAST_INT64 = {
    "non-square": _with_unit_pair([row + [5] for row in _diag([2, 3] * 9)],
                                  width=19),
    "p^e at least 2^31": _with_unit_pair(_diag([2 ** 31] * 18)),
    "cofactor too large to factor": _with_unit_pair(_diag([65537 * 65539] * 18)),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_valence_finish_refusals_fall_back_to_the_list_lane(case):
    m = _REFUSED[case]
    assert min(m.rows, m.cols) >= _LIST_LANE_BELOW
    assert valence_finish(_as_array(m)) is None
    assert valence_finish(_as_array(m).T) is None
    f = smith_normal_form(m).invariant_factors
    full = _eliminate([list(row) for row in m.data], m.rows, m.cols)
    assert f == _chain(full)


def test_valence_finish_refuses_a_krylov_lift_it_cannot_make(monkeypatch):
    # the degrees of the Krylov polynomials found before each refusal: one,
    # when no 64 primes reach the coefficient bound, and two that differ
    degrees, krylov = [], valence._krylov_polynomial

    def spy(aq, q):
        coeffs = krylov(aq, q)
        degrees.append(len(coeffs) - 1)
        return coeffs
    monkeypatch.setattr(valence, "_krylov_polynomial", spy)
    for case, want in (("more than 64 primes", [4]),
                       ("Krylov degrees differ", [3, 4])):
        degrees.clear()
        assert valence_finish(_as_array(_REFUSED[case])) is None
        assert degrees == want


@pytest.mark.parametrize("case", sorted(_PAST_INT64))
def test_valence_finish_answers_past_int64(case):
    m = _PAST_INT64[case]
    assert min(m.rows, m.cols) >= _LIST_LANE_BELOW
    full = _chain(_eliminate([list(row) for row in m.data], m.rows, m.cols))
    assert _chain(valence_finish(_array(m))) == full
    assert _chain(valence_finish(_array(m).T)) == full
    assert smith_normal_form(m).invariant_factors == full


def test_valence_finish_answers_past_the_unit_pair():
    # entries near the ceiling, which the valence lane accepts:
    # f = (x^2 - 2**62 x - 1)(x - 2)(x - 3)(x - 6), valence 36
    m = _with_unit_pair(_diag([2, 3, 6] * 6))
    rest = valence_finish(_array(m))
    assert rest is not None
    full = _eliminate([list(row) for row in m.data], m.rows, m.cols)
    assert _chain(rest) == _chain(full)
    assert smith_normal_form(m).invariant_factors == (1,) * 8 + (6,) * 12
    # singular: a zero row and column, so the rank comes from a prime
    # that does not divide the valence
    m = _with_unit_pair(_diag([0, 2, 3, 6] * 4 + [4, 9]))
    rest = valence_finish(_array(m))
    assert rest is not None and len(rest) == 20 - 4
    full = _eliminate([list(row) for row in m.data], m.rows, m.cols)
    assert _chain(rest) == _chain(full)
    # unimodular: f = (x^2 - 2**62 x - 1)(x - 1), valence 1, no modulus
    # to eliminate modulo
    m = _with_unit_pair(_diag([1] * 18))
    assert valence_finish(_array(m)) == [1] * 20
    assert smith_normal_form(m).invariant_factors == (1,) * 20
    assert is_unimodular(m)


def test_valence_finish_matches_eliminate_on_scheme_elements():
    # scheme elements the valence lane takes: coefficients of 2 to 4
    # digits, n <= 12, k <= 3, shifts of 0, at an eigenvalue (singular),
    # and at an eigenvalue minus a product of many small primes.  The
    # valence lane must answer each, and agree with the block reduction
    # and, where the matrix is small enough for the list lane to be quick,
    # with the list lane.  A prime-rich shift moves the other eigenvalues
    # near 5e5, where trial division may leave a cofactor it cannot
    # factor, which then becomes a modulus on Python ints.
    checked = []

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(k=st.sampled_from([2, 3]), n=st.integers(7, 12),
           digits=st.integers(2, 4), data=st.data())
    def check(k, n, digits, data):
        assume(n >= 3 * k - 1)
        top = 10 ** digits - 1
        coeffs = tuple(data.draw(st.integers(-top, top)) for _ in range(k + 1))
        p = SchemeParams(n, k, k, k)
        spectrum = [e.eigenvalue for e in eigenvalues(p, coeffs)]
        shift = data.draw(st.sampled_from(["none", "eigenvalue", "prime-rich"]))
        lam = 0
        if shift != "none":
            lam = data.draw(st.sampled_from(spectrum))
        if shift == "prime-rich":
            lam -= data.draw(st.sampled_from([720720, 2 ** 10 * 3 ** 5 * 7,
                                              2 * 3 * 5 * 7 * 11 * 13 * 17,
                                              -(2 ** 4 * 3 ** 3 * 5 ** 2 * 19)]))
        m = scheme_element_matrix(p, coeffs, lam)
        assume(m.cols >= _LIST_LANE_BELOW and m.max_abs() < _INT64_CEILING)
        rest = valence_finish(_array(m))
        checked.append(m.cols)
        assert rest is not None
        f = _chain(rest)
        assert group_from_smith(SmithForm(f, len(f)), m.cols) \
            == smith_group(p, coeffs, lam).group
        if m.cols <= 64:
            assert f == _chain(_eliminate([list(row) for row in m.data],
                                          m.rows, m.cols))

    check()
    assert len(checked) >= 12


def _spy_moduli(monkeypatch):
    """The list that each modulus valence_finish eliminates modulo joins."""
    seen, diagonal_mod = [], valence._diagonal_mod

    def spy(a, mod):
        seen.append(mod)
        return diagonal_mod(a, mod)
    monkeypatch.setattr(valence, "_diagonal_mod", spy)
    return seen


def test_valence_finish_keeps_an_unfactored_cofactor_as_one_modulus(
        monkeypatch):
    # the eigenvalue -124 of 91 A_0 + 11 A_2 (n = 11, k = 3) shifted by
    # 2*3*5*7*11*13*17: trial division below 2**16 leaves the cofactor
    # 84811 * 85999 of the valence, above 2**32, and it stays one part,
    # a modulus of its own on Python ints beside two below 2**31
    p = SchemeParams(11, 3, 3, 3)
    coeffs, lam = (91, 0, 11, 0), -124 - 510510
    v = abs(prod({e.eigenvalue - lam for e in eigenvalues(p, coeffs)}))
    assert max(_trial_division(v)) == 84811 * 85999
    seen = _spy_moduli(monkeypatch)
    a = _scheme_array(p, coeffs, lam)
    f = _chain(valence_finish(a))
    assert seen == [84811 * 85999, 1340867520, 7007]
    assert group_from_smith(SmithForm(f, len(f)), a.shape[1]) \
        == smith_group(p, coeffs, lam).group


def test_valence_finish_packs_the_wide_parts_into_one_modulus(monkeypatch):
    # A(12,3,3,3) with 62-bit coefficients, shifted by an eigenvalue: the
    # valence parts of 2**31 or more make one 170-bit modulus for a single
    # elimination on Python ints, beside an int64 one
    p = SchemeParams(12, 3, 3, 3)
    rng = random.Random(5)
    coeffs = tuple(rng.randint(-2 ** 62, 2 ** 62) for _ in range(4))
    lam = rng.choice([e.eigenvalue for e in eigenvalues(p, coeffs)])
    seen = _spy_moduli(monkeypatch)
    a = _scheme_array(p, coeffs, lam)
    f = _chain(valence_finish(a))
    assert [mod.bit_length() for mod in seen if mod >= 2 ** 31] == [170]
    assert any(mod < 2 ** 31 for mod in seen)
    assert group_from_smith(SmithForm(f, len(f)), a.shape[1]) \
        == smith_group(p, coeffs, lam).group


# A(8, 3, 3, ell) combinations sum_l b_l A_l - lam I, 56 x 56, whose
# valence packs into two moduli: the seven of the dense oracle's benchmark
# pass at n = 8, k = 3 (all nonsingular), one square one shifted to an
# eigenvalue, and one 28 x 56 A(8, 2, 3, ell) combination of rank 21.  In
# the singular ones the rank prime shares a modulus: 5 the modulus
# 810573435 with 162114687, and 7 the modulus 3584 with 2**9.
_TWO_MODULI = [  # (n, kr, kc), b_0..b_kr, lam, moduli, rank
    ((8, 3, 3), (-31, 33, 11, 11), -63, [818624063, 9], 56),
    ((8, 3, 3), (-59, 93, -24, 28), 22, [608205312, 5], 56),
    ((8, 3, 3), (-35, 81, 15, -21), 79, [1027567975, 9], 56),
    ((8, 3, 3), (16, -31, 88, -68), -43, [1629392100, 19], 56),
    ((8, 3, 3), (-29, -24, -48, -94), 57, [1034314875, 4], 56),
    ((8, 3, 3), (-97, 75, -65, 64), 99, [1156371984, 5], 56),
    ((8, 3, 3), (18, 50, 98, -30), -59, [2113008183, 7], 56),
    ((8, 3, 3), (-39, 52, 40, -66), -403, [810573435, 4], 36),
    ((8, 2, 3), (-45, -90, 0), 0, [922640625, 3584], 21),
]


@pytest.mark.parametrize("shape, coeffs, lam, moduli, rank", _TWO_MODULI)
def test_valence_finish_combines_two_moduli_into_one_chain(
        monkeypatch, shape, coeffs, lam, moduli, rank):
    seen = _spy_moduli(monkeypatch)
    a = _scheme_array(SchemeParams(*shape, 0), coeffs, lam)
    rest = valence_finish(a)
    assert seen == moduli
    assert len(rest) == rank
    assert rest == _eliminate(a.tolist(), *a.shape)


@pytest.mark.parametrize("n, ell", [(12, 0), (12, 1), (12, 2), (12, 3),
                                    (13, 1)])
def test_valence_finish_answers_non_square_scheme_matrices(n, ell):
    # A(n, 3, 4, ell), 220 x 495 or 286 x 715, through the valence of its
    # Gram matrix, in either orientation
    p = SchemeParams(n, 3, 4, ell)
    m = scheme_element_matrix(p)
    a = _array(m)
    rest = valence_finish(a)
    assert rest is not None and len(rest) <= m.rows
    f = _chain(rest)
    assert group_from_smith(SmithForm(f, len(f)), m.cols) \
        == smith_group(p).group
    assert _chain(valence_finish(a.T)) == f


def test_valence_finish_answers_a_gram_matrix_past_the_ceiling():
    # a row (2**32, 2**32) beside 3 I: its Gram entry 2**65 would wrap to 0
    # in int64, and the valence 9 of what is left, with the rank prime 2,
    # would read the factor 2**32 as 2; the Gram matrix is taken in Python
    # ints, so the lane answers exactly in either orientation
    data = ([[0] * 20 + [2 ** 32] * 2]
            + [row + [0, 0] for row in _diag([3] * 20)[1:]])
    m = IntMatrix(data)
    assert m.shape() == (20, 22) and m.max_abs() < _INT64_CEILING
    want = (1,) + (3,) * 18 + (3 * 2 ** 32,)
    assert _chain(valence_finish(_array(m))) == want
    assert _chain(valence_finish(_array(m).T)) == want
    assert _chain(_eliminate([list(row) for row in m.data], m.rows,
                             m.cols)) == want
    assert smith_normal_form(m).invariant_factors == want
    assert smith_normal_form(m.transpose()).invariant_factors == want


def test_annihilates_rejects_a_wrong_polynomial():
    # A(8,2,2,1) - 12 I, 28 x 28 with row sums at most 24, has minimal
    # polynomial x (x + 8)(x + 14).  Bound 24 checks in float64, 2**20
    # and 2**400 modulo primes; 2**600 would need more than 64 primes, so
    # nothing is certified
    a = _scheme_array(SchemeParams(8, 2, 2, 1), None, degree(8, 2, 1))
    f = [0, 112, 22, 1]
    for bound in (24, 2 ** 20, 2 ** 400):
        assert _annihilates(a, f, bound)
        assert not _annihilates(a, [1] + f[1:], bound)
    assert not _annihilates(a, f, 2 ** 600)


def _prime_powers(primes, bound):
    """p**e below bound, for p drawn from primes, e as drawn or smaller."""
    return st.tuples(st.sampled_from(primes), st.integers(1, 31)).map(
        lambda pe: pe[0] ** max(e for e in range(1, pe[1] + 1)
                                if pe[0] ** e < bound))


# moduli with repeated primes: int32, int64 (from 42336) and Python ints
_REPEATED = st.sampled_from([2 ** 3 * 3 ** 2 * 5, 2 ** 10, 3 ** 4 * 5 ** 2,
                             2 ** 5 * 3 ** 3 * 7 ** 2, 77520, 353430,
                             2 ** 40 * 3 ** 5])


def _moduli():
    """1, a prime power, or a product of coprime prime powers: below 2**15,
    where 2 mod**2 < 2**31 and the residues are int32, below 2**31, where
    they are int64, and from 2**31 to about 2**200, where they are Python
    ints, among them products of primes above 2**16, as the cofactor that
    trial division leaves of a valence can be.  Near 2**15 the int32
    headroom is 2 updates (32767 = 7*31*151), so twelve pivots reach it;
    32768 is the first int64 modulus.  Moduli with repeated primes, in
    each width, give a common factor of the trailing block something to
    divide out."""
    powers = _prime_powers([2, 3, 5, 7, 11, 13, 65521, 2 ** 31 - 1], 2 ** 31)
    narrow = _prime_powers([2, 3, 5, 7, 11, 13, 17, 31, 151, 32749], 2 ** 15)
    wide = st.sampled_from([2 ** 31, (2 ** 31 - 1) ** 2, 65521 ** 4,
                            2 ** 61 - 1, 3 ** 40, 65537 * 65539,
                            65537 * 65539 * 65543])
    return st.one_of(st.just(1), powers,
                     st.lists(powers, min_size=2, max_size=4).map(_pack),
                     narrow,
                     st.lists(narrow, min_size=2, max_size=4)
                     .map(lambda parts: _pack(parts, 2 ** 15)),
                     st.sampled_from([32749, 30030, 32130, 32767, 32768]),
                     _REPEATED,
                     wide,
                     st.lists(st.one_of(wide, powers), min_size=2, max_size=5)
                     .map(lambda parts: _pack(parts, 2 ** 200)))


def _unimodular(n, rng):
    """A product of n elementary row operations with multipliers +-1, +-2
    on the n x n identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _udv(rows, cols, mod, rng):
    """U D V with U, V unimodular and D diagonal, its entries 0 or
    products of up to four primes of mod (2 if it has none below 19),
    and half the time all of it times one of those primes.  Then, with
    more than 8 rows and columns, half of those have 1 added at (1, 1),
    which the rows and columns a common factor is first tried on at the
    first pivot leave out."""
    primes = [p for p in (2, 3, 5, 7, 11, 13, 17) if mod % p == 0] or [2]
    d = [0 if rng.random() < 0.15
         else prod(rng.choices(primes, k=rng.randint(0, 4)))
         for _ in range(min(rows, cols))]
    diag = [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    data = _times(_times(_unimodular(rows, rng), diag),
                  _unimodular(cols, rng))
    if rng.random() < 0.5:
        c = rng.choice(primes)
        data = [[c * x for x in row] for row in data]
        if min(rows, cols) > 8 and rng.random() < 0.5:
            data[1][1] += 1
    return data


def _pack(parts, bound=2 ** 31):
    """The product of the coprime parts, taken in order while it stays
    below bound."""
    out = 1
    for part in parts:
        if gcd(out, part) == 1 and out * part < bound:
            out *= part
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), mod=_moduli(),
       big=st.booleans(), seed=st.integers(0, 2 ** 32),
       udv=st.one_of(st.none(), st.tuples(st.integers(9, 16),
                                          st.integers(9, 16), _REPEATED)))
def test_diagonal_mod_gives_the_gcds_of_the_invariant_factors(rows, cols, mod,
                                                             big, seed, udv):
    # entries rich in the small primes, so that pivots with incomparable
    # gcds meet under a composite modulus, and with big, some up to 2**62;
    # or, with udv, _udv's matrices of up to 16 rows and columns, whose
    # trailing blocks share primes with a modulus that repeats them
    rng = random.Random(seed)
    factors = [0, 1, 2, 3, 4, 6, 8, 9, 12, 27, 35, 65521]
    data = [[rng.randint(-2 ** 62, 2 ** 62) if big and rng.random() < 0.2
             else rng.randint(-9, 9) * rng.choice(factors)
             for _ in range(cols)] for _ in range(rows)]
    if udv is not None:
        rows, cols, mod = udv
        data = _udv(rows, cols, mod, rng)
    diag = _chain(_eliminate([row[:] for row in data], rows, cols))
    want = [gcd(d, mod) for d in diag] + [mod] * (min(rows, cols) - len(diag))
    got = _chain(_diagonal_mod(np.array(data, dtype=np.int64), mod))
    assert got == tuple(want)


def test_kneser_laplacian_divides_out_a_common_factor(monkeypatch):
    # the Kneser Laplacian (21, 2): 210 columns, one elimination modulo
    # 353430 = 2 * 3**3 * 5 * 7 * 11 * 17 on int64; its trailing blocks
    # share primes of the modulus.  _diagonal_mod reads the gcd table of
    # its modulus once at the start and once after each division that
    # leaves it above 1
    moduli, gcd_table = [], valence._gcd_table

    def spy(mod):
        moduli.append(mod)
        return gcd_table(mod)
    monkeypatch.setattr(valence, "_gcd_table", spy)
    p = SchemeParams(21, 2, 2, 0)
    lam = degree(21, 2, 0)
    a = _scheme_array(p, None, lam)
    f = _chain(valence_finish(a))
    assert moduli[0] == 353430 and len(moduli) > 1
    assert all(m % n == 0 and m > n for m, n in zip(moduli, moduli[1:]))
    assert group_from_smith(SmithForm(f, len(f)), a.shape[1]) \
        == smith_group(p, None, lam).group


def test_gcd_table_holds_the_gcds_with_the_modulus():
    for mod in [*range(1, 400), 2 ** 14, 30030, 32130, 32767]:
        table = _gcd_table(mod)
        assert table.dtype == np.int32
        assert np.array_equal(table, np.gcd(np.arange(mod), mod))
    assert _gcd_table(2 ** 15) is None


def _is_prime(q):
    return q > 1 and all(q % p for p in range(2, isqrt(q) + 1))


def test_primes_are_found_once_per_size(monkeypatch):
    # the reference: the scan that _primes makes once per n, with its own
    # primality test
    def scan(n, above):
        out, product = [], 1
        for q in range(isqrt(2 ** 53 // n) | 1, 2, -2):
            if n * (q - 1) ** 2 + q < 2 ** 53 and _is_prime(q):
                out.append(q)
                product *= q
                if product > above:
                    return out
                if len(out) == 64:
                    return None

    sizes = (20, 210, 3003)
    aboves = (1, 2 ** 30, 2 ** 200, 2 ** 1400, 2 ** 1700, 2 ** 3000)
    want = {(n, above): scan(n, above) for n in sizes for above in aboves}
    assert want[20, 2 ** 1400] is not None and want[20, 2 ** 1700] is None
    monkeypatch.setattr(valence, "_PRIMES_FOUND", {})
    for (n, above), primes in want.items():
        assert _primes(n, above) == primes
    monkeypatch.setattr(valence, "_trial_division", None)  # all found already
    for (n, above), primes in reversed(want.items()):
        assert _primes(n, above) == primes


def test_rank_prime_is_the_least_prime_not_dividing_the_valence():
    # the reference: the primes in increasing order, each tested for
    # primality, and the first of them that does not divide v
    def first_prime_not_dividing(v):
        return next(p for p in count(2) if v % p and _is_prime(p))

    primes = [p for p in range(2, 200) if _is_prime(p)]
    primorials = [prod(primes[:i]) for i in range(1, len(primes) + 1)]
    values = [*range(1, 20000), *primorials, *(x - 1 for x in primorials),
              *(x * x for x in primorials), *(x * 65537 for x in primorials),
              2 ** 64, 3 ** 40 * 2 ** 20]
    for v in values:
        assert _rank_prime(v) == first_prime_not_dividing(v), v
    assert max(map(_rank_prime, primorials)) > 199


def test_array_entry_points_take_integer_dtypes_only(monkeypatch):
    floats = np.array([[2.5, 0], [0, 3.0]])
    with pytest.raises(ExactError, match="integer array"):
        smith_normal_form(floats)
    with pytest.raises(ExactError, match="integer array"):
        IntMatrix(np.array([[0.5, 1.0]]))
    # bool and unsigned entries come out as Python ints
    snf = smith_normal_form(np.array([[True, False], [False, True]]))
    assert snf.invariant_factors == (1, 1)
    assert all(type(d) is int for d in snf.invariant_factors)
    m = IntMatrix(np.array([[True, False], [True, True]]))
    assert m.data == [[1, 0], [1, 1]] and type(m.data[0][0]) is int
    assert IntMatrix(np.array([[2**64 - 1]], dtype=np.uint64)).data == [[2**64 - 1]]
    # an object array holds integers only; bools and numpy integers become ints
    for held in (1.5, 2.0, "2", None):
        for entry_point in (IntMatrix, smith_normal_form):
            with pytest.raises(ExactError, match="integer array"):
                entry_point(np.array([[held, 2]], dtype=object))
    mixed = np.array([[True, np.int32(-4)], [np.uint64(2**64 - 1), 2**70]],
                     dtype=object)
    m = IntMatrix(mixed)
    assert m.data == [[1, -4], [2**64 - 1, 2**70]]
    assert all(type(v) is int for row in m.data for v in row)
    assert smith_normal_form(mixed) == smith_normal_form(m)
    small = np.array([[2, 4], [6, 9]], dtype=np.int32)
    assert smith_normal_form(small).invariant_factors == (1, 6)
    assert IntMatrix(small).data == [[2, 4], [6, 9]]
    # a narrow integer array is widened to int64 for the valence lane, and
    # a uint64 one with an entry of 2**62 or more comes as Python ints
    offered = _valence_offers(monkeypatch)
    wide = rand_matrix(random.Random(3), _LIST_LANE_BELOW, _LIST_LANE_BELOW)
    got = smith_normal_form(np.array(wide.data, dtype=np.int32))
    assert offered == [("int64", wide.data)]
    assert got == smith_normal_form(wide)
    top = np.abs(_array(wide)).astype(np.uint64)
    top[0, 0] = 2 ** 64 - 1
    assert smith_normal_form(top) == smith_normal_form(IntMatrix(top))
    assert offered[2:] == [("object", top.tolist())] * 2


def test_lists_and_runs_take_integers_only():
    # a float is refused, not truncated, whether whole or not
    for data in (_diag([2.5] * 20), [[1.5, 2], [3, 4]], [[2.0]], [[1, "2"]],
                 [[None]]):
        with pytest.raises(ExactError, match="integers"):
            IntMatrix(data)
    with pytest.raises(ExactError, match="integers"):
        IntMatrix.diagonal([2.5, 3])
    for runs, free_rank in ((((2.0, 1),), 0), (((2, 1.0),), 0), ((), 1.0),
                            ((("2", 1),), 0)):
        with pytest.raises(ExactError, match="integers"):
            AbelianGroup(runs, free_rank)
    # bools and numpy integers become Python ints
    m = IntMatrix([[True, np.int32(-4)], [np.uint64(2 ** 64 - 1), 2 ** 70]])
    assert m.data == [[1, -4], [2 ** 64 - 1, 2 ** 70]]
    assert all(type(v) is int for row in m.data for v in row)
    assert smith_normal_form(m) == smith_normal_form(np.array(m.data,
                                                              dtype=object))
    g = AbelianGroup([(np.int64(2), np.int8(3))], np.uint16(1))
    assert g == AbelianGroup(((2, 3),), 1) and str(g) == "(Z/2)^3 + Z"
    assert all(type(v) is int for v in (*g.runs[0], g.free_rank))


def test_arrays_take_the_transform_and_product_paths():
    rng = random.Random(11)
    for rows, cols in [(1, 1), (2, 3), (4, 4), (5, 2), (0, 3)]:
        m = rand_matrix(rng, rows, cols)
        for a in (_array(m).reshape(rows, cols),
                  np.array(m.data, dtype=np.int16).reshape(rows, cols)):
            assert (smith_normal_form(a, with_transforms=True)
                    == smith_normal_form(m, with_transforms=True))
    with pytest.raises(ExactError, match="integer array"):
        smith_normal_form(np.array([[1.0, 2.0]]), with_transforms=True)
    a = np.array([[3, -1], [2**40, 5]])
    assert IntMatrix([[1, 0], [0, 1]]) @ a == IntMatrix(a)
    assert IntMatrix([[2, 1]]) @ a == IntMatrix([[6 + 2**40, 3]])
    # the bound sees |-2**63|, so the sum is not rounded in float64
    low = np.array([[-2**63], [1]])
    assert (IntMatrix([[1, 1]]) @ low).data == [[1 - 2**63]]
    with pytest.raises(ExactError, match="shape"):
        IntMatrix([[1, 2, 3]]) @ a


def test_snf_big_entries_exact_lane():
    # entries far beyond int64 force the arbitrary-precision path
    big = 10 ** 30
    m = IntMatrix([[2 * big, 4 * big], [4 * big, 8 * big]])
    snf = smith_normal_form(m)
    assert snf.invariant_factors == (2 * big,)
    m2 = IntMatrix([[big, big + 1], [1, 1]])
    assert smith_normal_form(m2).invariant_factors == (1, 1)


def test_index_of_unimodular_and_invariance():
    rng = random.Random(3)
    assert index(IntMatrix.identity(4)) == 1
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        i0 = index(m)
        perm = list(range(rows))
        rng.shuffle(perm)
        assert index(m.submatrix(perm, range(cols))) == i0
        assert index(m.transpose()) == i0
        assert i0 == prod(smith_normal_form(m).invariant_factors, start=1)


def test_gcd_minors_examples():
    # reduced blocks of the k=2 triangular-graph Laplacian (shift 2(n-2))
    for n in (7, 8, 11):
        m0 = IntMatrix([[0, 2, 0], [0, -n, 2], [0, 0, -2 * n + 2]])
        assert gcd_minors(m0, 2) == 4
    m2 = IntMatrix([[-12]])
    assert gcd_minors(m2, 1) == 12
    assert gcd_minors(IntMatrix.identity(3), 3) == 1


def test_gcd_minors_ratio_property():
    rng = random.Random(4)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        snf = smith_normal_form(m)
        prev = 1
        for i in range(1, min(rows, cols) + 1):
            g = gcd_minors(m, i)
            if i <= snf.rank:
                assert g == prev * snf.invariant_factors[i - 1]
                prev = g
            else:
                assert g == 0


def test_gcd_minors_range_errors():
    with pytest.raises(ExactError):
        gcd_minors(IntMatrix.identity(3), 0)
    with pytest.raises(ExactError):
        gcd_minors(IntMatrix.identity(3), 4)
    with pytest.raises(ExactError):
        gcd_minors(IntMatrix.identity(9), 2)


def test_is_unimodular():
    assert is_unimodular(IntMatrix.identity(4))
    assert not is_unimodular(IntMatrix.diagonal([2, 1]))
    assert not is_unimodular(IntMatrix.zeros(2, 3))
    assert is_unimodular(IntMatrix([[2, 3], [1, 2]]))


def test_unimodular_inverse():
    m = IntMatrix([[2, 3], [1, 2]])
    assert m @ unimodular_inverse(m) == IntMatrix.identity(2)
    with pytest.raises(ExactError):
        unimodular_inverse(IntMatrix.diagonal([2, 1]))


def test_completion_examples():
    m = IntMatrix([[1, 0, 0], [0, 1, 0]])
    assert unimodular_completion(m).data == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    c = unimodular_completion(IntMatrix([[2, 1, 0]]))
    assert c.data[0] == [2, 1, 0]
    assert abs(_bareiss_det(c.data)) == 1
    sq = IntMatrix([[1, 7], [0, 1]])
    assert unimodular_completion(sq) is sq
    assert unimodular_completion(IntMatrix.zeros(0, 3)) == IntMatrix.identity(3)


def test_completion_needs_smith_fallback():
    # no identity-row completion of [[2, 3]] is unimodular
    c = unimodular_completion(IntMatrix([[2, 3]]))
    assert c.data[0] == [2, 3]
    assert abs(_bareiss_det(c.data)) == 1


def test_completion_takes_arrays(monkeypatch):
    rng = random.Random(8)
    cases = [IntMatrix([[1, 0, 0], [0, 1, 0]]), IntMatrix([[2, 1, 0]]),
             IntMatrix([[1, 7], [0, 1]]), IntMatrix([[2, 3]]),
             IntMatrix.zeros(0, 3)]
    while len(cases) < 25:
        m = rand_matrix(rng, rng.randint(1, 4), 6, -4, 4)
        if smith_normal_form(m).invariant_factors == (1,) * m.rows:
            cases.append(m)
    for m in cases:
        want = unimodular_completion(m)
        for a in (_array(m).reshape(m.rows, m.cols),
                  np.array(m.data, dtype=object).reshape(m.rows, m.cols)):
            assert unimodular_completion(a) == want
    # past 2**62 the conversion holds Python ints (dtype object)
    for row in ([2 ** 62 + 1, 1], [2 ** 70 + 1, 2 ** 70]):
        want = unimodular_completion(IntMatrix([row]))
        assert want.data[0] == row and is_unimodular(want)
        assert unimodular_completion(np.array([row], dtype=object)) == want
    # [[2, 3]] given as an array still needs the Smith transforms
    calls = []
    inverse = proof.unimodular_inverse
    monkeypatch.setattr(proof, "unimodular_inverse",
                        lambda m: calls.append(m) or inverse(m))
    c = unimodular_completion(np.array([[2, 3]]))
    assert calls and c.data[0] == [2, 3] and is_unimodular(c)


def test_completion_random_index_one_inputs():
    rng = random.Random(5)
    done = 0
    while done < 60:
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        if rows > cols:
            continue
        m = rand_matrix(rng, rows, cols, -4, 4)
        snf = smith_normal_form(m)
        if snf.rank != rows or any(d != 1 for d in snf.invariant_factors):
            continue
        c = unimodular_completion(m)
        assert c.data[:rows] == m.data
        assert is_unimodular(c)
        done += 1


def test_completion_errors():
    with pytest.raises(ExactError):
        unimodular_completion(IntMatrix([[2, 0]]))        # index 2
    with pytest.raises(ExactError):
        unimodular_completion(IntMatrix([[1, 1], [1, 1]]))  # rank deficient
    with pytest.raises(ExactError):
        unimodular_completion(IntMatrix([[1, 0], [0, 1], [1, 1]]))  # rows > cols


def test_stack():
    a = IntMatrix([[1, 2]])
    b = IntMatrix([[3, 4], [5, 6]])
    assert stack([a, b]).data == [[1, 2], [3, 4], [5, 6]]
    assert stack([a]).data == a.data
    assert stack([IntMatrix([[7]]), IntMatrix([[8]])]).data == [[7], [8]]
    with pytest.raises(ExactError):
        stack([a, IntMatrix([[1, 2, 3]])])


def test_builders_carry_labels_and_copy_rows():
    # transpose, submatrix and stack hand their rows over unchecked: each
    # row is a new list, so a change to it leaves the source as it was
    m = IntMatrix([[1, 2, 3], [4, 5, 6]], row_labels="ab", col_labels="xyz")
    t = m.transpose()
    assert t.data == [[1, 4], [2, 5], [3, 6]]
    assert (t.row_labels, t.col_labels) == (tuple("xyz"), tuple("ab"))
    s = m.submatrix([1], [2, 0])
    assert s.data == [[6, 4]]
    assert (s.row_labels, s.col_labels) == (("b",), ("z", "x"))
    both = stack([m, m.submatrix([0], range(3))])
    assert both.row_labels == tuple("aba") and both.col_labels == tuple("xyz")
    for out in (t, s, both):
        out.data[0][0] = 9
    assert m.data == [[1, 2, 3], [4, 5, 6]]
    empty = IntMatrix.zeros(0, 3).transpose()
    assert empty.shape() == (3, 0) and empty.data == [[], [], []]
    empty.data[0].append(1)
    assert empty.data[1:] == [[], []]


def test_group_from_diagonal_examples():
    assert group_from_diagonal([(2, 1), (3, 1)]) == AbelianGroup(((6, 1),))
    assert group_from_diagonal([(2, 1), (3, 1), (0, 2)]) \
        == AbelianGroup(((6, 1),), 2)
    assert group_from_diagonal([(1, 100)]) == AbelianGroup()
    assert group_from_diagonal([(-6, 2)]) == AbelianGroup(((6, 2),))
    with pytest.raises(ExactError, match="nonnegative"):
        group_from_diagonal([(2, 1), (3, -1)])


def test_group_from_diagonal_matches_snf_route():
    # independent route: SNF of the literal diagonal matrix.  Half the
    # multisets are built from a few primes, two of them near 2**26 and
    # 2**40, so values share factors that a coprime base must split.
    rng = random.Random(6)
    primes = [2, 3, 5, 7, 67108859, 1099511627689]
    for trial in range(400):
        if trial % 2:
            entries = [(rng.randint(-30, 30), rng.randint(0, 3)) for _ in range(4)]
        else:
            entries = [(rng.choice([1, -1, 0]) * prod(
                rng.choice(primes) ** rng.randint(0, 3)
                for _ in range(rng.randint(1, 3))), rng.randint(0, 3))
                for _ in range(rng.randint(1, 6))]
        flat = [v for v, m in entries for _ in range(m)]
        cols = len(flat)
        via_pairs = group_from_diagonal(entries)
        if cols:
            via_snf = group_from_smith(
                smith_normal_form(IntMatrix.diagonal(flat)), cols)
            assert via_pairs == via_snf, entries
        else:
            assert via_pairs.is_trivial()


def _below_2_20(factors):
    """The product of the factors, taken in order while it stays below 2**20."""
    out = 1
    for f in factors:
        if out * f < 2 ** 20:
            out *= f
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entries=st.lists(st.tuples(
    st.one_of(st.integers(-2 ** 20 + 1, 2 ** 20 - 1),
              st.lists(st.sampled_from([2, 3, 4, 5, 6, 9, 10, 12, 25, 49, 121,
                                        1009, 32749]), max_size=8)
              .map(_below_2_20)),
    st.integers(0, 3)), max_size=10))
def test_coprime_base_and_group_from_diagonal_match_trial_division(entries):
    # values that share factors in every pattern, so that base elements
    # divide later values, split them, and are split by them
    assert sorted(_coprime_base([6, 12])) == [2, 3]
    base = _coprime_base(abs(v) for v, _ in entries)
    assert all(b > 1 for b in base)
    assert all(gcd(a, b) == 1 for a, b in combinations(base, 2))
    for v, _ in entries:
        v = abs(v)
        for b in base:
            while v and v % b == 0:
                v //= b
        assert v in (0, 1)
    # per prime (trial division below 2**16 factors any value below
    # 2**32), its exponents largest first, zipped into the factors
    exponents, free = {}, 0
    for v, m in entries:
        free += m if v == 0 else 0
        for p, e in _trial_division(abs(v)).items() if v else ():
            exponents.setdefault(p, []).extend([e] * m)
    factors = [1] * max(map(len, exponents.values()), default=0)
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[i] *= p ** e
    runs = [(d, len(list(same))) for d, same in groupby(reversed(factors))]
    assert group_from_diagonal(entries) == AbelianGroup(runs, free)


def test_group_validation_and_render():
    for runs in [((1, 1), (2, 1)),     # a factor of 1
                 ((4, 1), (6, 1)),     # not a divisibility chain
                 ((2, 1), (2, 3)),     # a repeated value
                 ((2, 1), (6, 0))]:    # an empty run
        with pytest.raises(ExactError):
            AbelianGroup(runs)
    with pytest.raises(ExactError):
        AbelianGroup((), -1)
    assert str(AbelianGroup()) == "0"
    assert str(AbelianGroup(((6, 1),), 2)) == "Z/6 + Z^2"
    assert str(AbelianGroup(((2, 1), (342, 1)))) == "Z/2 + Z/342"
    assert str(AbelianGroup(((3, 2),), 1)) == "(Z/3)^2 + Z"
    g = AbelianGroup([[2, 3], [6, 1]])
    assert g.runs == ((2, 3), (6, 1)) and g == AbelianGroup(((2, 3), (6, 1)))
    assert g.invariant_factors == (2, 2, 2, 6) and g.order() == 48


def test_group_json_roundtrip():
    g = group_from_diagonal([(4, 2), (6, 1), (0, 3)])
    assert AbelianGroup.from_json_dict(g.to_json_dict()) == g


@pytest.mark.parametrize("d", [
    {"invariant_factors": [2.9, 6], "free_rank": 1.5},
    {"invariant_factors": ["4"], "free_rank": True},
    {"invariant_factors": [2, 6], "free_rank": 1.0},
    {"invariant_factors": [True, 6], "free_rank": 0},
    {"invariant_factors": [4], "free_rank": None},
])
def test_group_json_refuses_non_integers(d):
    # int() read the first two as Z/2 + Z/6 + Z and Z/4 + Z
    with pytest.raises(ExactError, match="non-integer"):
        AbelianGroup.from_json_dict(d)


def test_matrix_text_roundtrip(digit_limit):
    digit_limit(4300)  # Python's default; the last entry has 5000 digits
    for m in [IntMatrix([[1, -2], [3, 4]]), IntMatrix.zeros(0, 5),
              IntMatrix.zeros(3, 0), IntMatrix([[10 ** 40]]),
              IntMatrix([[-(10 ** 4999) - 7, 0]])]:
        again = IntMatrix.from_text(m.to_text())
        assert again.shape() == m.shape() and again.data == m.data
    with pytest.raises(ExactError):
        IntMatrix.from_text("2 2\n1 2\n3\n")
    with pytest.raises(ExactError):
        IntMatrix.from_text("bogus\n")


@pytest.mark.parametrize("token", ["1e0", "1_0", "\u0663"])
@pytest.mark.parametrize("ones", [0, 5000])
def test_matrix_text_refuses_non_integer_tokens_at_any_length(
        digit_limit, token, ones):
    # int() reads 1_0 as 10 and the Arabic-Indic digit three as 3, and past
    # Python's default limit of 4300 digits names the length, not the syntax
    digit_limit(4300)
    entry = "1" * ones + token
    message = f"matrix file holds a non-integer token {entry!r:.40}"
    with pytest.raises(ExactError, match=re.escape(message)):
        IntMatrix.from_text(f"1 1\n{entry}\n")


def test_matmul_matches_reference():
    rng = random.Random(8)
    for _ in range(50):
        r, mid, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, r, mid)
        b = rand_matrix(rng, mid, c)
        want = [[sum(a.data[i][t] * b.data[t][j] for t in range(mid))
                 for j in range(c)] for i in range(r)]
        assert (a @ b).data == want
    big = IntMatrix([[10 ** 20, 1]])
    other = IntMatrix([[10 ** 20], [1]])
    assert (big @ other).data == [[10 ** 40 + 1]]
    # cols * max|a| * max|b| picks the lane: float64 below 2**53, int64
    # below 2**62, Python ints past it.  x * x + 1 is odd and past 2**53,
    # where float64 rounds it; 2 * y * y is past 2**63, where int64 wraps.
    x, y = isqrt(1 << 53) + 1, isqrt(1 << 63)
    for a, b in (([[x, 1]], [[x], [1]]), ([[y, y]], [[y], [y]])):
        got = (IntMatrix(a) @ IntMatrix(b)).data
        assert got == [[a[0][0] * b[0][0] + a[0][1] * b[1][0]]]
        assert type(got[0][0]) is int
    a = rand_matrix(rng, 30, 40, -2**20, 2**20)
    b = rand_matrix(rng, 40, 30, -2**20, 2**20)
    assert (a @ b).data == [[sum(u * v for u, v in zip(row, col))
                             for col in zip(*b.data)] for row in a.data]
