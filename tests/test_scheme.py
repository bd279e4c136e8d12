import hashlib
import random
import re
import time
from itertools import combinations
from math import comb, gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setsmith import exact, oracle, proof
from setsmith.exact import IntMatrix
from setsmith.oracle import (_scheme_array, intersection_matrix,
                             scheme_element_matrix)
from setsmith.proof import (bier_p, d_diag, d_matrix, d_product,
                            d_prime_entries, e_matrices, f_coeff,
                            is_unimodular, triangular_check, w_matrix)
from setsmith.scheme import (DEFAULT_CAP, ParameterError, SchemeParams,
                             SizeCapExceeded, block_multiplicity, c_coeff,
                             degree, eigenvalues, ms_matrices, ms_matrix,
                             smith_group)
from setsmith.scheme import _combined_f, _pascal
from setsmith.exact import (AbelianGroup, ExactError, _coprime_base,
                            group_from_diagonal, smith_normal_form)
from setsmith.oracle import (THEOREMS, bench, brute_force_group,
                             verify_closed_form)
from setsmith.subsets import enumerate_subsets, mu
from setsmith.superstandard import (boundary_interior_split, check_conjecture,
                                    check_simpler_lemma, p_tilde,
                                    phi_boundary_column_match, w_tilde)


def test_params_validation():
    SchemeParams(5, 2, 2, 0)
    with pytest.raises(ParameterError):
        SchemeParams(5, 3, 2, 0)
    with pytest.raises(ParameterError):
        SchemeParams(5, 2, 2, 3)
    with pytest.raises(ParameterError):
        SchemeParams(3, 2, 4, 0)


def test_non_integer_inputs_are_refused():
    # a float is refused, not rounded or passed on to fail in the
    # elimination; numpy integers pass and come out as Python ints
    p = SchemeParams(10, 3, 3, 1)
    for call, message in (
            (lambda: smith_group(p, (0, 1.9, 0, 0)), "coefficient"),
            (lambda: smith_group(p, lam=0.5), "shift"),
            (lambda: smith_group(p, lam=2.0), "shift"),
            (lambda: eigenvalues(p, lam=0.5), "shift"),
            (lambda: ms_matrices(p, (0, 1, 0, "2")), "coefficient"),
            (lambda: brute_force_group(p, (0, 1, 0, 0), lam=1.0), "shift"),
            (lambda: SchemeParams(10.5, 3, 3, 1), "n must"),
            (lambda: SchemeParams(10, 3, 3.0, 1), "kc must"),
            (lambda: p._replace(ell=None), "ell must")):
        with pytest.raises(ParameterError, match=message):
            call()
    q = SchemeParams(np.int64(10), np.int32(3), 3, np.uint8(1))
    assert q == p and all(type(v) is int for v in q)
    result = smith_group(p, np.array([0, 2, 0, 1]), np.int64(3))
    assert result == smith_group(p, (0, 2, 0, 1), 3)
    assert all(type(v) is int for v in (*result.coeffs, result.lam))


def test_records_are_immutable_and_check_their_fields():
    p = SchemeParams(8, 2, 2, 1)
    result = smith_group(p, lam=3)
    records = [smith_normal_form(IntMatrix([[2, 4]])), result.group, p,
               ms_matrices(p)[0], eigenvalues(p)[0], result.blocks[0], result,
               THEOREMS["johnson_k2_laplacian"],
               verify_closed_form("johnson_k2_laplacian", 6), bench(p),
               check_conjecture(8, 2, 2), boundary_interior_split(6, 1, 2)]
    assert len({type(r) for r in records}) == 12
    for record in records:
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    # a record is a tuple of its fields
    assert p == (8, 2, 2, 1) and hash(p) == hash((8, 2, 2, 1))
    # SchemeParams and AbelianGroup check their fields however they are built
    bad = "need 0 <= ell <= kr <= kc <= n, got SchemeParams(n=5, kr=3, kc=2, ell=0)"
    for make in (lambda: SchemeParams(5, 3, 2, 0),
                 lambda: SchemeParams(n=5, kr=3, kc=2, ell=0),
                 lambda: SchemeParams(5, 2, 2, 0)._replace(kr=3)):
        with pytest.raises(ParameterError) as info:
            make()
        assert str(info.value) == bad
    for runs, free_rank, message in (
            (((1, 2),), 0, "invariant factors must all exceed 1"),
            (((2, 0),), 0, "run lengths must be positive"),
            (((2, 1), (3, 1)), 0, "strictly increase in a divisibility chain"),
            ((), -1, "free rank must be nonnegative")):
        for make in (lambda: AbelianGroup(runs, free_rank),
                     lambda: AbelianGroup(runs=runs, free_rank=free_rank),
                     lambda: AbelianGroup()._replace(runs=runs,
                                                     free_rank=free_rank)):
            with pytest.raises(ExactError, match=message):
                make()
    assert AbelianGroup([[2, 1]], free_rank=1) == AbelianGroup(((2, 1),), 1)


def test_degree():
    assert degree(5, 2, 0) == 3
    assert degree(12, 3, 2) == 27
    assert degree(9, 4, 4) == 1


def test_intersection_identity_when_ell_equals_k():
    m = intersection_matrix(SchemeParams(6, 3, 3, 3))
    assert m == IntMatrix.identity(comb(6, 3))


def test_petersen_row():
    m = intersection_matrix(SchemeParams(5, 2, 2, 0))
    row = dict(zip(m.col_labels, m.data[m.row_labels.index((1, 2))]))
    hits = sorted(s for s, v in row.items() if v)
    assert hits == [(3, 4), (3, 5), (4, 5)]


def test_intersection_row_sums_are_degree():
    for n, k, ell in [(6, 2, 1), (7, 3, 0), (8, 3, 2), (6, 3, 3)]:
        m = intersection_matrix(SchemeParams(n, k, k, ell))
        d = degree(n, k, ell)
        assert all(sum(row) == d for row in m.data)


def test_bier_p_small_example():
    p = bier_p(4, 2)
    assert p.col_labels == ((), (2,), (3,), (4,), (2, 4), (3, 4))
    assert p.data[p.row_labels.index((1, 2))] == [1, 1, 0, 0, 0, 0]


def test_bier_p_empty_column_is_all_ones():
    p = bier_p(6, 3)
    j = p.col_labels.index(())
    assert all(row[j] == 1 for row in p.data)


def test_bier_p_unimodular_sample():
    for n, k in [(4, 2), (6, 3), (8, 3), (9, 4)]:
        assert is_unimodular(bier_p(n, k)), (n, k)


def test_w_identity_zero_and_entries():
    for n, i in [(8, 2), (10, 3)]:
        assert w_matrix(n, i, i) == IntMatrix.identity(mu(n, i))
    z = w_matrix(12, 4, 3)
    assert z.shape() == (mu(12, 4), mu(12, 3)) == (275, 154)
    assert all(v == 0 for row in z.data for v in row)
    w = w_matrix(5, 1, 2)
    assert w.row_labels == ((2,), (3,), (4,), (5,))
    get = lambda a, b: w.data[w.row_labels.index(a)][w.col_labels.index(b)]
    assert get((2,), (2, 4)) == 1
    assert get((3,), (2, 4)) == 0


def test_c_coeff_closed_forms():
    for n, k in [(8, 3), (10, 2), (12, 3)]:
        # disjointness relation: only i = 0 contributes
        p = SchemeParams(n, k, k, 0)
        for j in range(k + 1):
            assert c_coeff(0, j, p) == comb(n - k - j, k - j)
            for i in range(1, k + 1):
                assert c_coeff(i, j, p) == 0
        # near-identity relation ell = k-1, i = j
        p = SchemeParams(n, k, k, k - 1)
        for i in range(k + 1):
            assert c_coeff(i, i, p) == (k - i) * (n - k)


def test_f_coeff_closed_forms():
    for n, k in [(8, 3), (11, 3), (10, 2)]:
        pj = SchemeParams(n, k, k, k - 1)
        pk = SchemeParams(n, k, k, 0)
        for i in range(k + 1):
            for j in range(k + 1):
                if i <= j:
                    # vanishing below the superdiagonal only holds there
                    if i == j:
                        want = (k - i) * (n - k - i) - i
                    elif i == j - 1:
                        want = k - i
                    else:
                        want = 0
                    assert f_coeff(i, j, pj) == want, (n, k, i, j)
                kneser = (-1) ** i * comb(n - k - j, k - j)
                assert f_coeff(i, j, pk) == kneser
    assert f_coeff(1, 0, SchemeParams(8, 3, 3, 0)) == -comb(5, 3)


def test_fundamental_w_product_identity():
    for n in (7, 9, 12):
        jmax = n // 2
        for j in range(jmax + 1):
            for i in range(j + 1):
                for s in range(i + 1):
                    lhs = w_matrix(n, s, i) @ w_matrix(n, i, j)
                    rhs = w_matrix(n, s, j).scale(comb(j - s, i - s))
                    assert lhs == rhs, (n, s, i, j)


def test_product_with_basis_matrix_entries():
    # (A P_kc)(A, beta) counts kc-sets through A and beta and must equal
    # c_coeff(|A n beta|, |beta|) -- checked exhaustively for n <= 9
    for n in range(2, 10):
        for kc in range(n + 1):
            p_mat = bier_p(n, kc)
            cmasks = [sum(1 << (e - 1) for e in s) for s in p_mat.col_labels]
            csizes = [len(s) for s in p_mat.col_labels]
            for kr in range(kc + 1):
                for ell in range(kr + 1):
                    p = SchemeParams(n, kr, kc, ell)
                    a_mat = intersection_matrix(p)
                    rmasks = [sum(1 << (e - 1) for e in s)
                              for s in a_mat.row_labels]
                    prod = a_mat @ p_mat
                    # c_coeff depends only on (|A n beta|, |beta|)
                    table = [[c_coeff(i, b, p) for b in range(kc + 1)]
                             for i in range(kr + 1)]
                    for r, am in enumerate(rmasks):
                        row = prod.data[r]
                        for c, (bm, bs) in enumerate(zip(cmasks, csizes)):
                            want = table[(am & bm).bit_count()][bs]
                            assert row[c] == want, (p, r, c)


def test_d_diag():
    assert d_diag(9, 1, 2) == [(2, 1), (1, mu(9, 1) - 1), (0, mu(9, 2) - mu(9, 1))]
    assert d_diag(10, 2, 2) == [(1, 1), (1, mu(10, 1) - 1),
                                (1, mu(10, 2) - mu(10, 1)), (0, 0)]
    assert d_diag(12, 2, 3) == [(3, 1), (2, 10), (1, 43), (0, mu(12, 3) - mu(12, 2))]
    assert d_product(12, 2, 3) == 3 * 2 ** 10
    assert d_prime_entries(12, 2, 3) == [3] + [2] * 10 + [1] * 43
    with pytest.raises(ParameterError):
        d_diag(8, 2, 4)


def test_d_product_range():
    # an int on acceptance criterion 4's range 2j + i <= n, and a refusal,
    # never a float or an OverflowError, everywhere else
    for n in range(20):
        for j in range(n + 1):
            for i in range(j + 1):
                if 2 * j + i <= n:
                    got = d_product(n, i, j)
                    assert type(got) is int and got >= 1, (n, i, j)
                else:
                    try:
                        got = d_product(n, i, j)
                    except ParameterError:
                        continue
                    assert type(got) is int and got >= 1, (n, i, j)
    for args in [(0, 1, 1), (12, -1, 2), (12, 3, 2), (-1, 0, 0), (19, 9, 9)]:
        with pytest.raises(ParameterError):
            d_product(*args)


def test_oversized_builds_refuse_fast():
    # e_matrices(20, 5) needs 10659 x 10659 matrices; it used to run for
    # minutes before anything was refused.  w_tilde(100, 0, 3) is 1 x 156750
    for build in (lambda: e_matrices(20, 5),
                  lambda: p_tilde(20, 5, 5),
                  lambda: intersection_matrix(SchemeParams(1000, 3, 3, 1)),
                  lambda: scheme_element_matrix(SchemeParams(3001, 1, 1, 0),
                                                (1, 1)),
                  lambda: bier_p(1000, 3),
                  lambda: w_matrix(1000, 2, 3),
                  lambda: w_tilde(100, 0, 3)):
        t0 = time.perf_counter()
        with pytest.raises(SizeCapExceeded):
            build()
        assert time.perf_counter() - t0 < 1
    # the cap is inclusive, and it bounds the matrix, not the subsets it
    # would scan: no 30-subset of 40 points is standard
    assert w_matrix(DEFAULT_CAP + 1, 0, 1).shape() == (1, DEFAULT_CAP)
    with pytest.raises(SizeCapExceeded):
        w_matrix(DEFAULT_CAP + 2, 0, 1)
    assert w_matrix(40, 0, 30).shape() == (1, 0)


def test_e_matrices_construction():
    es = e_matrices(10, 3)
    assert es[0].data == [[1]]
    for s, e in enumerate(es):
        assert e.shape() == (mu(10, s), mu(10, s))
        assert is_unimodular(e)
    for j in range(4):
        for i in range(j + 1):
            assert es[i] @ w_matrix(10, i, j) == d_matrix(10, i, j) @ es[j]
    with pytest.raises(ParameterError):
        e_matrices(8, 4)


def test_e_families_never_need_the_smith_fallback(monkeypatch):
    # every unit-row completion in the E builds certifies on its minor, so
    # unimodular_completion never reaches smith_normal_form's transforms
    # (which stay for index-1 input such as [[2, 3]]); a fresh cache keeps
    # families built by earlier tests from passing unchecked
    snf = proof.smith_normal_form

    def no_transforms(m, with_transforms=False):
        assert not with_transforms, f"Smith-transform fallback on {m.shape()}"
        return snf(m)

    monkeypatch.setattr(proof, "smith_normal_form", no_transforms)
    monkeypatch.setattr(proof, "_E_CACHE", {})
    for n in range(14):
        assert len(e_matrices(n, (n + 1) // 3)) == (n + 1) // 3 + 1


def test_e_build_refuses_an_inexact_row_scaling(monkeypatch):
    # a wrong scale on the last row of E_1 W_{1,2} must not pass as exact
    scales = proof.d_prime_entries

    def doubled_last(n, i, j):
        out = scales(n, i, j)
        return out[:-1] + [2 * out[-1]] if i == 1 else out

    monkeypatch.setattr(proof, "d_prime_entries", doubled_last)
    monkeypatch.setattr(proof, "_E_CACHE", {})
    assert len(e_matrices(10, 1)) == 2
    with pytest.raises(exact.ConstructionError, match=r"E_1 W_\{1,2\}"):
        e_matrices(10, 2)


# sha256 of the concatenated to_text() of the recursive E_0..E_k
E_FAMILY_SHA256 = {
    (10, 3): "1876d18cfaac5de331f1c0be947fbfbd9b8c619b6381f243d08e01e9ca6b6de1",
    (13, 4): "1d4751fa6e5cd306b1fc80fee5cf592308068e04a97a9bb638ed2fcf92920ff7",
    (16, 3): "4423ad2ab62fdf995060f31ddad3309bf5bde8d739f588a8c29cb181ac4ee8b6",
}


@pytest.mark.parametrize("n, k", sorted(E_FAMILY_SHA256))
def test_recursive_e_family_is_pinned(n, k):
    # the completion may change how it certifies, never what it returns
    text = "".join(e.to_text() for e in e_matrices(n, k))
    assert hashlib.sha256(text.encode()).hexdigest() == E_FAMILY_SHA256[n, k]


def test_triangular_check():
    assert triangular_check(SchemeParams(7, 2, 3, 1))
    assert triangular_check(SchemeParams(6, 2, 2, 2))
    assert triangular_check(SchemeParams(12, 3, 3, 1))


def test_ms_matrices_of_association_combination():
    p = SchemeParams(12, 3, 3, 3)
    coeffs = (0, 1, 3, 0)
    ms = ms_matrices(p, coeffs, 0)
    assert ms[0].entries.data == [[189, 33, 3, 0], [0, 57, 22, 3],
                                  [0, 0, 2, 3], [0, 0, 0, -6]]
    assert ms[1].entries.data == [[57, 11, 1], [0, 2, 2], [0, 0, -6]]
    assert ms[2].entries.data == [[2, 1], [0, -6]]
    assert ms[2].multiplicity == 43
    assert ms[3].entries.data == [[-6]]
    assert [m.multiplicity for m in ms] == [1, 10, 43, 100]


def test_ms_identity_relation():
    p = SchemeParams(9, 3, 3, 3)
    for s in range(4):
        m = ms_matrix(s, p)
        assert m.entries == IntMatrix.identity(4 - s)


def test_ms_published_block_shapes():
    # near-identity relation (Johnson), shift = degree, k = 2
    n = 9
    p = SchemeParams(n, 2, 2, 1)
    ms = ms_matrices(p, lam=degree(n, 2, 1))
    assert ms[0].entries.data == [[0, 2, 0], [0, -n, 2], [0, 0, -2 * n + 2]]
    assert ms[1].entries.data == [[-n, 1], [0, -2 * n + 2]]
    assert ms[2].entries.data == [[-2 * n + 2]]
    # k = 3 with shift = degree
    p = SchemeParams(n, 3, 3, 2)
    ms = ms_matrices(p, lam=degree(n, 3, 2))
    assert ms[0].entries.data == [[0, 3, 0, 0], [0, -n, 4, 0],
                                  [0, 0, -2 * n + 2, 3], [0, 0, 0, -3 * n + 6]]
    assert ms[1].entries.data == [[-n, 2, 0], [0, -2 * n + 2, 2],
                                  [0, 0, -3 * n + 6]]
    assert ms[2].entries.data == [[-2 * n + 2, 1], [0, -3 * n + 6]]
    assert ms[3].entries.data == [[-3 * n + 6]]
    # k = 3 adjacency
    ms = ms_matrices(p)
    assert ms[0].entries.data == [[3 * (n - 3), 3, 0, 0], [0, 2 * n - 9, 4, 0],
                                  [0, 0, n - 7, 3], [0, 0, 0, -3]]
    # disjointness relation (Kneser) k = 2 with shift = degree
    p = SchemeParams(n, 2, 2, 0)
    ms = ms_matrices(p, lam=degree(n, 2, 0))
    assert ms[0].entries.data == [
        [0, n - 3, 1],
        [0, -(n - 3) * n // 2, -2],
        [0, 0, -(n - 4) * (n - 1) // 2]]
    # rectangular case kr=2, kc=3, ell=1
    p = SchemeParams(n, 2, 3, 1)
    ms = ms_matrices(p)
    assert ms[0].entries.data == [
        [(n - 2) * (n - 3), 2 * (n - 3), 2, 0],
        [0, (n - 3) * (n - 6) // 2, 2 * (n - 5), 3],
        [0, 0, -2 * (n - 4), -6]]
    assert ms[1].entries.data == [[(n - 3) * (n - 6) // 2, n - 5, 1],
                                  [0, -2 * (n - 4), -4]]
    assert ms[2].entries.data == [[-2 * (n - 4), -2]]


def test_ms_upper_triangular_for_random_coeffs():
    rng = random.Random(11)
    for _ in range(20):
        n, k = rng.choice([(9, 3), (10, 3), (8, 2)])
        p = SchemeParams(n, k, k, k)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(k + 1))
        lam = rng.randint(-3, 3)
        for s in range(k + 1):
            m = ms_matrix(s, p, coeffs, lam).entries
            for i in range(m.rows):
                for j in range(i):
                    assert m.data[i][j] == 0


def test_block_multiplicity_matches_mu_difference():
    # the closed formula agrees with the true count difference throughout
    # the range the block reduction uses (n >= 3s - 1)
    for n in range(0, 14):
        for s in range(5):
            if n >= 3 * s - 1:
                want = mu(n, s) - (mu(n, s - 1) if s else 0)
                assert block_multiplicity(n, s) == want


def test_smith_group_example():
    res = smith_group(SchemeParams(12, 3, 3, 3), (0, 1, 3, 0), 0)
    want = group_from_diagonal([(3, 2), (14364, 1), (2, 10), (342, 10),
                                (12, 43), (6, 100)])
    assert res.group == want
    assert [b.delta for b in res.blocks] == [(1, 3, 3, 14364), (1, 2, 342),
                                             (1, 12), (6,)]


@pytest.mark.parametrize("p, coeffs, lam", [
    (SchemeParams(12, 3, 3, 3), (0, 1, 3, 0), 0),
    (SchemeParams(9, 2, 3, 1), (3, -1, 2), 0),
    (SchemeParams(59, 20, 20, 19), None, degree(59, 20, 19))])
def test_reducing_a_block_leaves_its_matrix_unchanged(p, coeffs, lam):
    # ms_matrices hands its rows to each IntMatrix uncopied, so the block
    # reduction must copy them, on the list lane and past it (21 x 21)
    res = smith_group(p, coeffs, lam)
    assert [(b.matrix.shape(), b.matrix.data) for b in res.blocks] == [
        (m.entries.shape(), m.entries.data)
        for m in ms_matrices(p, coeffs, lam)]


def test_block_deltas_match_eliminate():
    # each block's delta and rank from smith_group, by the gcds of its
    # minors up to 3 x 6, equal _eliminate's on the block: random two-digit
    # combinations at kc <= 5, square and not, shifted anywhere or to an
    # eigenvalue (a singular block), and the Johnson and Kneser Laplacians,
    # at n from 3kc - 1 to 10**30
    rng = random.Random(28)
    cases = []
    for kc in range(1, 6):
        for n in (3 * kc - 1, 3 * kc, 3 * kc + 5, 10 ** 6, 10 ** 30):
            cases += [(SchemeParams(n, kc, kc, ell), None, degree(n, kc, ell))
                      for ell in {0, kc - 1}]
            for _ in range(6):
                kr = rng.choice([kc, rng.randint(0, kc)])
                p = SchemeParams(n, kr, kc, 0)
                coeffs = tuple(rng.randint(-99, 99) for _ in range(kr + 1))
                lam = 0
                if kr == kc:
                    lam = rng.choice([rng.randint(-99, 99), rng.choice(
                        [e.eigenvalue for e in eigenvalues(p, coeffs)])])
                cases.append((p, coeffs, lam))
    for p, coeffs, lam in cases:
        for b in smith_group(p, coeffs, lam).blocks:
            rows, cols = b.matrix.shape()
            diag = exact._eliminate([row[:] for row in b.matrix.data],
                                    rows, cols)
            assert (b.delta, b.rank) == (
                tuple(diag) + (0,) * (min(rows, cols) - len(diag)),
                len(diag)), (p, coeffs, lam, b.s)


def test_smith_group_kneser_adjacency_matches_eigenvalue_diagonal():
    # the disjointness matrix has a diagonal form listing its eigenvalues
    # C(5-j, 3-j) with multiplicity mu_j; as a group that's what the block
    # reduction must produce
    res = smith_group(SchemeParams(8, 3, 3, 0))
    want = group_from_diagonal([(comb(5 - j, 3 - j), mu(8, j))
                                for j in range(4)])
    assert res.group == want
    assert res.group.free_rank == 0


def test_smith_group_johnson_k2_laplacian_n6():
    res = smith_group(SchemeParams(6, 2, 2, 1), lam=degree(6, 2, 1))
    pooled = {}
    for b in res.blocks:
        for d in b.delta:
            pooled[d] = pooled.get(d, 0) + b.multiplicity
    assert pooled == {10: 4, 60: 4, 1: 4, 2: 2, 0: 1}


def test_smith_group_refuses_small_n():
    with pytest.raises(ParameterError):
        smith_group(SchemeParams(6, 3, 3, 0))
    # every entry to the blocks answers at n = 3*kc - 1 and refuses just
    # below it, where block_multiplicity can go negative: at (4, 2, 2, 1)
    # M_2 would repeat -1 times
    assert block_multiplicity(4, 2) == -1
    entries = [smith_group, ms_matrices, lambda p: ms_matrix(0, p),
               lambda p: ms_matrix(p.kr, p)]
    for kr, kc in [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 3)]:
        answers = SchemeParams(3 * kc - 1, kr, kc, 1)
        refused = SchemeParams(3 * kc - 2, kr, kc, 1)
        for entry in entries + [eigenvalues] * (kr == kc):
            entry(answers)
            with pytest.raises(ParameterError, match="n >= 3"):
                entry(refused)


def test_smith_group_shift_folding_identity():
    # B - lam*I equals B with lam subtracted from the coefficient of the
    # identity relation (ell = k)
    p = SchemeParams(10, 3, 3, 3)
    rng = random.Random(12)
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        lam = rng.randint(-3, 3)
        a = smith_group(p, coeffs, lam)
        folded = list(coeffs)
        folded[3] -= lam
        b = smith_group(p, folded, 0)
        assert a.group == b.group


def test_smith_group_rectangular_rules():
    p = SchemeParams(9, 2, 3, 1)
    smith_group(p)  # fine
    with pytest.raises(ParameterError):
        smith_group(p, lam=1)
    with pytest.raises(ParameterError):
        smith_group(p, coeffs=(1, 1, 0), lam=1)
    assert smith_group(p, coeffs=(1, 1, 0)).coeffs == (1, 1, 0)
    with pytest.raises(ParameterError):
        smith_group(SchemeParams(9, 3, 3, 3), coeffs=(1, 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kc=st.sampled_from([2, 3]), data=st.data())
def test_non_square_combinations_match_oracle(kc, data):
    # the triangularization A P_kc = P_kr U is linear in the coefficients,
    # so any combination of the A(n, kr, kc, l) reduces, not only one of them
    n = data.draw(st.integers(3 * kc - 1, 11))
    kr = data.draw(st.integers(1, kc - 1))
    coeffs = tuple(data.draw(st.integers(-10 ** 6, 10 ** 6))
                   for _ in range(kr + 1))
    p = SchemeParams(n, kr, kc, kr)
    assert smith_group(p, coeffs).group == brute_force_group(p, coeffs)


def test_smith_group_matches_oracle_envelope():
    # feasible tuples across the supported sizes, both shapes, spot-checking
    # the larger-n end of the envelope
    cases = []
    for n in range(2, 13):
        for kc in (1, 2, 3):
            if n < 3 * kc - 1:
                continue
            for kr in range(1, kc + 1):
                for ell in range(kr + 1):
                    cases.append((n, kr, kc, ell))
    cases += [(20, 2, 2, 1), (31, 2, 2, 0), (14, 3, 3, 2), (14, 2, 3, 0)]
    rng = random.Random(13)
    picked = [c for c in cases if c[0] <= 9] + [c for c in cases if c[0] > 9]
    for n, kr, kc, ell in picked:
        p = SchemeParams(n, kr, kc, ell)
        lam = degree(n, kr, ell) if (kr == kc and rng.random() < 0.5) else 0
        assert smith_group(p, lam=lam).group == brute_force_group(
            p, lam=lam, cap=500), (n, kr, kc, ell, lam)


def test_eigenvalues_johnson_laplacian():
    for n, k in [(9, 2), (12, 3)]:
        p = SchemeParams(n, k, k, k - 1)
        spec = eigenvalues(p, lam=degree(n, k, k - 1))
        assert [s.eigenvalue for s in spec] == [-i * (n - i + 1) for i in range(k + 1)]
        assert [s.multiplicity for s in spec] == [mu(n, i) for i in range(k + 1)]
        assert sum(s.multiplicity for s in spec) == comb(n, k)


def test_eigenvalues_kneser_laplacians():
    n = 11
    spec = eigenvalues(SchemeParams(n, 2, 2, 0), lam=degree(n, 2, 0))
    assert [s.eigenvalue for s in spec] == [
        0, -(n - 3) * n // 2, -(n - 1) * (n - 4) // 2]
    spec = eigenvalues(SchemeParams(n, 3, 3, 0), lam=degree(n, 3, 0))
    assert [s.eigenvalue for s in spec] == [
        0,
        -(n - 4) * (n - 5) * n // 6,
        -(n - 1) * (n - 5) * (n - 6) // 6,
        -(n * n - 10 * n + 27) * (n - 2) // 6]


def test_eigenvalues_identity_relation():
    n, k = 10, 3
    spec = eigenvalues(SchemeParams(n, k, k, k))
    assert all(s.eigenvalue == 1 for s in spec)
    assert sum(s.multiplicity for s in spec) == comb(n, k)


def test_eigenvalues_rejects_rectangular():
    with pytest.raises(ParameterError):
        eigenvalues(SchemeParams(9, 2, 3, 1))


def test_laplacian_kernel_is_one_dimensional():
    # with the shift equal to the degree, 0 is an eigenvalue and the free
    # rank equals the (single) connected component of these graphs
    for n, k, ell in [(5, 1, 0), (8, 2, 0), (8, 2, 1), (9, 3, 0),
                      (9, 3, 1), (9, 3, 2)]:
        p = SchemeParams(n, k, k, ell)
        lam = degree(n, k, ell)
        spec = eigenvalues(p, lam=lam)
        assert spec[0].eigenvalue == 0 and spec[0].multiplicity >= 1
        res = smith_group(p, lam=lam)
        assert res.group.free_rank == 1, (n, k, ell)


def test_two_prime_shift_answers_quickly():
    # with this shift an invariant factor of M_2 keeps, after its small
    # primes, the cofactor 12208150943 * 207395767489 (primes of 34 and 38
    # bits), which trial division cannot split in reasonable time
    p = SchemeParams(12, 3, 3, 2)
    lam = 4503599091023640
    t0 = time.perf_counter()
    group = smith_group(p, lam=lam).group
    assert time.perf_counter() - t0 < 5
    # nonsingular, so the order is |det|, the product of the eigenvalues
    assert group.free_rank == 0
    assert group.order() == prod(abs(s.eigenvalue) ** s.multiplicity
                                 for s in eigenvalues(p, lam=lam))


def test_order_of_a_large_group_is_fast():
    # the (60,4) Johnson Laplacian: 456 778 invariant factors, a 3.8M-bit
    # order.  By the matrix-tree theorem the order is the product of the
    # nonzero Laplacian eigenvalues over the vertex count.
    p = SchemeParams(60, 4, 4, 3)
    lam = degree(60, 4, 3)
    group = smith_group(p, lam=lam).group
    t0 = time.perf_counter()
    order = group.order()
    assert time.perf_counter() - t0 < 5
    want = prod(abs(s.eigenvalue) ** s.multiplicity
                for s in eigenvalues(p, lam=lam) if s.eigenvalue)
    assert order == want // comb(60, 4)


def _eberlein(n, k, i, j):
    """Eigenvalue of the distance-j Johnson matrix A(n,k,k,k-j) on the i-th
    eigenspace."""
    return sum((-1) ** t * comb(i, t) * comb(k - i, j - t)
               * comb(n - k - i, j - t) for t in range(j + 1))


def _strip(x, b):
    """(e, x / b**e) for the largest e with b**e dividing x."""
    e = 0
    while x % b == 0:
        x //= b
        e += 1
    return e, x


def test_group_does_not_grow_with_n():
    # the Johnson Laplacian on C(10**6, 8) vertices, ~2.5e43 invariant
    # factors.  By the matrix-tree theorem the torsion order is
    # prod theta_i^mu_i / C(n,k) over the nonzero Laplacian eigenvalues;
    # valuations over a coprime base are compared, the order is never formed
    n, k = 10 ** 6, 8
    p = SchemeParams(n, k, k, k - 1)
    t0 = time.perf_counter()
    group = smith_group(p, lam=degree(n, k, k - 1)).group
    assert time.perf_counter() - t0 < 5
    assert group.free_rank == 1
    spec = [(_eberlein(n, k, 0, 1) - _eberlein(n, k, i, 1), mu(n, i))
            for i in range(k + 1)]
    assert spec[0] == (0, 1)
    nonzero = spec[1:]
    values = [t for t, _ in nonzero] + [comb(n, k)] + [d for d, _ in group.runs]
    base = _coprime_base(values)
    assert all(gcd(a, b) == 1 for a, b in combinations(base, 2))
    for v in values:
        for b in base:
            v = _strip(v, b)[1]
        assert v == 1
    for b in base:
        want = (sum(m * _strip(t, b)[0] for t, m in nonzero)
                - _strip(comb(n, k), b)[0])
        assert sum(m * _strip(d, b)[0] for d, m in group.runs) == want, b


def _superstandard_family(n, k):
    # the conjectured super-standard E family p_tilde(n, s, s), s <= k, and
    # the checks it must pass to stand in for e_matrices(n, k): unimodular
    # mu_s x mu_s matrices with E_s W_{s,s+1} = D_{s,s+1} E_{s+1}
    es = [p_tilde(n, s, s) for s in range(k + 1)]
    for s, e in enumerate(es):
        assert e.shape() == (mu(n, s), mu(n, s)) and is_unimodular(e), (n, s)
    for s in range(k):
        assert es[s] @ w_matrix(n, s, s + 1) == d_matrix(n, s, s + 1) @ es[s + 1]
    return es


def test_e_families_give_same_groups():
    # the M_s blocks, hence the group, hold for any unimodular family with
    # E_s W_{s,s+1} = D_{s,s+1} E_{s+1}; the recursive and the super-standard
    # family must both pass that check for this instance
    n, kc = 10, 3
    es = e_matrices(n, kc)
    for s in range(kc):
        assert es[s] @ w_matrix(n, s, s + 1) == d_matrix(n, s, s + 1) @ es[s + 1]
    _superstandard_family(n, kc)


def _assert_full_conjugation_structure(p, coeffs, lam, es=None):
    # materialize T = blockdiag(E) P^{-1} L P blockdiag(E^{-1}) and check
    # every copy of every M_s sits in its predicted slot with zeros elsewhere;
    # E is the recursive family unless es is given
    from setsmith.proof import unimodular_inverse
    n, k = p.n, p.kr
    big_l = scheme_element_matrix(p, coeffs, lam)
    p_mat = bier_p(n, k)
    es = e_matrices(n, k) if es is None else es
    size = comb(n, k)
    mus = [mu(n, j) for j in range(k + 1)]
    offs = [sum(mus[:j]) for j in range(k + 1)]

    def block_diag(mats):
        out = IntMatrix.zeros(size, size)
        pos = 0
        for m in mats:
            for r in range(m.rows):
                out.data[pos + r][pos:pos + m.cols] = m.data[r]
            pos += m.rows
        return out

    bd = block_diag(es)
    bd_inv = block_diag([unimodular_inverse(e) for e in es])
    t = bd @ unimodular_inverse(p_mat) @ big_l @ p_mat @ bd_inv

    ms = ms_matrices(p, coeffs, lam)
    # section of a position inside a block: the largest s with mu_{s-1} <= u
    def section(u):
        s = 0
        while s + 1 <= k and mu(n, s) <= u:
            s += 1
        return s

    for i in range(k + 1):
        for j in range(k + 1):
            for u in range(mus[i]):
                su = section(u)
                row = t.data[offs[i] + u]
                for v in range(mus[j]):
                    want = 0
                    if u == v and i >= su and j >= su:
                        want = ms[su].entries.data[i - su][j - su]
                    assert row[offs[j] + v] == want, (i, j, u, v)


def test_full_conjugation_embeds_the_blocks():
    _assert_full_conjugation_structure(SchemeParams(7, 2, 2, 1), (0, 1, 0),
                                       degree(7, 2, 1))
    _assert_full_conjugation_structure(SchemeParams(9, 3, 3, 3), (1, -2, 3, 1), 4)
    # the conjecturally unimodular family produces the very same embedding
    _assert_full_conjugation_structure(SchemeParams(8, 2, 2, 0), (2, 0, -1),
                                       -3, es=_superstandard_family(8, 2))
    _assert_full_conjugation_structure(SchemeParams(10, 3, 3, 2), None,
                                       degree(10, 3, 2),
                                       es=_superstandard_family(10, 3))


def test_concurrent_callers_share_the_e_cache():
    import threading
    from setsmith.proof import _E_CACHE
    _E_CACHE.clear()
    results = []
    lock = threading.Lock()

    def work():
        fam = e_matrices(12, 4)
        res = smith_group(SchemeParams(12, 3, 3, 1), lam=3)
        with lock:
            results.append(([m.data for m in fam], res.group))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results[1:])


def test_scheme_element_matrix_against_definition():
    for p, coeffs, lam in [
            (SchemeParams(7, 2, 2, 1), (2, -1, 3), 4),
            (SchemeParams(70, 1, 1, 0), (5, -3), 0),      # n > 64
            (SchemeParams(70, 1, 2, 1), (1, 2), 0),
            (SchemeParams(8, 1, 3, 1), (-4, 9), 0),       # kr < kc
            (SchemeParams(6, 0, 2, 0), (7,), 0),          # kr = 0
            (SchemeParams(5, 0, 0, 0), (3,), -2),         # kr = kc = 0
            (SchemeParams(7, 2, 2, 0), (2 ** 70, -1, 3), -5),
            (SchemeParams(6, 3, 3, 3), (1, 0, -2, 4), -(2 ** 65))]:
        m = scheme_element_matrix(p, coeffs, lam)
        assert m.shape() == (comb(p.n, p.kr), comb(p.n, p.kc))
        assert m.row_labels == tuple(combinations(range(1, p.n + 1), p.kr))
        assert m.col_labels == tuple(combinations(range(1, p.n + 1), p.kc))
        for i, a in enumerate(m.row_labels):
            row = m.data[i]
            for j, b in enumerate(m.col_labels):
                want = coeffs[len(set(a) & set(b))] - (lam if i == j else 0)
                assert row[j] == want and type(row[j]) is int, (p, i, j)


def test_scheme_array_is_int64_only_below_the_ceiling():
    p = SchemeParams(6, 2, 2, 1)
    top = 2 ** 62
    assert _scheme_array(p, (top - 11, 0, 1), 10).dtype == np.int64
    assert _scheme_array(p, (top - 10, 0, 1), 10).dtype == object
    assert _scheme_array(p, (1, -top, 1)).dtype == object
    wide = _scheme_array(p, (1, top + 3, 1), -10)
    assert wide[0, 0] == 11 and wide[0, 1] == top + 3


def test_dense_oracle_is_exact_past_int64():
    # 28 columns, with entries past 2**64: the valence lane must take the
    # object array whole, as int64 would wrap around
    p = SchemeParams(8, 2, 2, 2)
    for coeffs, lam in [((2 ** 70, 3, -5), 0), ((7, -(2 ** 70) + 1, 2), 2),
                        ((2 ** 63, 2 ** 63 + 1, 1), -(2 ** 66))]:
        assert brute_force_group(p, coeffs, lam) == smith_group(p, coeffs, lam).group


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_combined_f_matches_the_per_ell_definition(data):
    kc = data.draw(st.integers(0, 5))
    kr = data.draw(st.integers(0, kc))
    n = data.draw(st.integers(kc, 40))
    coeffs = tuple(data.draw(st.integers(-10 ** 30, 10 ** 30) | st.just(0))
                   for _ in range(kr + 1))
    p = SchemeParams(n, kr, kc, 0)
    want = [[sum(b * f_coeff(i, j, SchemeParams(n, kr, kc, ell))
                 for ell, b in enumerate(coeffs)) if i <= j else 0
             for j in range(kc + 1)] for i in range(kr + 1)]
    assert _combined_f(p, coeffs, _pascal(p.kc)) == want


def test_combined_f_matches_the_table_through_c_coeff():
    # the per-term definition: one SchemeParams per ell and one c_coeff per
    # (ell, v, j), then the alternating sum; n = 3kc - 1 (kc when that is
    # smaller), just past it, and far past it
    rng = random.Random(21)
    for kc in range(7):
        for kr in range(kc + 1):
            for n in (max(3 * kc - 1, kc), 3 * kc + 4, 10 ** 6, 10 ** 30):
                coeffs = tuple(rng.choice([0, rng.randint(-99, 99),
                                           rng.randint(-10 ** 20, 10 ** 20)])
                               for _ in range(kr + 1))
                p = SchemeParams(n, kr, kc, 0)
                terms = [(b, SchemeParams(n, kr, kc, ell))
                         for ell, b in enumerate(coeffs) if b]
                g = [[sum(b * c_coeff(v, j, q) for b, q in terms)
                      for j in range(kc + 1)] for v in range(kr + 1)]
                want = [[sum((-1) ** (i + v) * comb(i, v) * g[v][j]
                             for v in range(i + 1)) if i <= j else 0
                         for j in range(kc + 1)] for i in range(kr + 1)]
                assert _combined_f(p, coeffs, _pascal(kc)) == want, (p, coeffs)


# The names `import setsmith` offered before the dense builders, the proof
# objects and the dense command handlers moved to modules that load on first
# use; perfbench/worker.py imports some of them from setsmith.
_EXPORTED = (
    "AbelianGroup", "BenchReport", "BoundarySplit", "ConjectureReport",
    "ConstructionError", "DEFAULT_CAP", "ExactError", "IntMatrix",
    "MsMatrix", "ParameterError", "STANDARD", "SUPER_STANDARD",
    "SchemeParams", "SizeCapExceeded", "SmithForm", "SmithGroupResult",
    "SpectrumEntry", "THEOREMS", "UNRESTRICTED", "VerificationReport",
    "__version__", "bench", "bier_p", "binomial", "block_multiplicity",
    "boundary_interior_split", "brute_force_group", "c_coeff",
    "check_conjecture", "check_simpler_lemma", "closed_form_entries",
    "closed_form_group", "d_diag", "d_matrix", "d_product", "degree",
    "diagonal_form_entries", "e_matrices", "eigenvalues",
    "enumerate_subsets", "exact", "f_coeff", "gcd_minors",
    "group_from_diagonal", "group_from_smith", "index",
    "intersection_matrix", "is_boundary", "is_standard",
    "is_super_standard", "is_unimodular", "ms_matrices", "ms_matrix", "mu",
    "oracle", "p_tilde", "phi", "phi_boundary_column_match", "phi_inverse",
    "scheme", "scheme_element_matrix", "smith_group", "smith_normal_form",
    "stack", "subsets", "superstandard", "triangular_check",
    "unimodular_completion", "unimodular_inverse", "unit_coeffs",
    "verify_closed_form", "w_matrix", "w_tilde")


def test_every_exported_name_still_resolves():
    import setsmith
    missing = [name for name in _EXPORTED if not hasattr(setsmith, name)]
    assert missing == []
    from setsmith import brute_force_group, scheme_element_matrix
    assert brute_force_group is setsmith.oracle.brute_force_group
    assert scheme_element_matrix is setsmith.oracle.scheme_element_matrix
    assert setsmith.e_matrices is setsmith.proof.e_matrices


# argument checks that no other test reaches: the call, and the exact type
# and message of its refusal
_REFUSALS = {
    "ragged rows": (lambda: IntMatrix([[1, 2], [3]]), ExactError,
                    "ragged rows, or rows of other than cols entries"),
    "row labels": (lambda: IntMatrix([[1]], row_labels=[(), (1,)]),
                   ExactError, "row label count does not match row count"),
    "column labels": (lambda: IntMatrix([[1]], col_labels=[]), ExactError,
                      "column label count does not match column count"),
    "diagonal": (lambda: IntMatrix.diagonal([1, 2, 3], 2, 3), ExactError,
                 "too many diagonal entries for the given shape"),
    "empty file": (lambda: IntMatrix.from_text(""), ExactError,
                   "empty matrix file"),
    "header": (lambda: IntMatrix.from_text("2 2 2\n"), ExactError,
               "first line must be 'rows cols'"),
    "stack": (lambda: exact.stack([]), ExactError,
              "cannot stack zero matrices"),
    "degree": (lambda: degree(3, 2, 3), ParameterError,
               "need 0 <= ell <= k <= n"),
    "ms_matrix": (lambda: ms_matrix(3, SchemeParams(8, 2, 2, 0)),
                  ParameterError, "need 0 <= s <= kr, got s=3"),
    "enumerate_subsets": (lambda: enumerate_subsets(-1, 2), ValueError,
                          "n and k must be nonnegative"),
    "mu": (lambda: mu(4, -1), ValueError, "n and s must be nonnegative"),
    "unimodular_inverse": (lambda: proof.unimodular_inverse(IntMatrix([[1, 0]])),
                           ExactError, "only square matrices can be unimodular"),
    "bier_p": (lambda: bier_p(3, 4), ParameterError, "need 0 <= k <= n"),
    "p_tilde": (lambda: p_tilde(-1, 0, 0), ParameterError,
                "need n, i, j >= 0"),
    "phi_boundary_column_match": (lambda: phi_boundary_column_match(5, 0, 1),
                                  ParameterError, "need i, j >= 1"),
    "_exact_div": (lambda: oracle._exact_div(7, 2), ExactError,
                   "expected 2 to divide 7 exactly"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_refusals_name_the_argument(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error


# branches that no other test reaches: the call and its value
_RARE_BRANCHES = {
    "IntMatrix == list": (lambda: IntMatrix([[1]]) == [[1]], False),
    "repr": (lambda: repr(IntMatrix.zeros(2, 3)), "IntMatrix(2x3)"),
    "pretty of an empty matrix": (lambda: IntMatrix.zeros(0, 3).pretty(),
                                  "(empty 0x3)"),
    "stack of parts with other column labels": (
        lambda: exact.stack([IntMatrix([[1]], col_labels=[(1,)]),
                             IntMatrix([[2]], col_labels=[(2,)])]).col_labels,
        None),
    "determinant of a 0 x 0 grid": (lambda: proof._bareiss_det([]), 1),
    # j = 2 > (n + 1)/3: p_tilde(4, 2, 2) has 3 rows, mu(4, 2) = 2
    "check_simpler_lemma outside its range": (
        lambda: check_simpler_lemma(4, 1, 2), False),
}


@pytest.mark.parametrize("case", _RARE_BRANCHES)
def test_rare_branches(case):
    call, want = _RARE_BRANCHES[case]
    assert call() == want


def test_d_matrix_refuses_oversized_before_building(monkeypatch):
    # D(20, 2, 6) has the shape of W(20, 2, 6), which is refused too, and
    # D(30, 3, 9) would have 3625 x 8454225 cells
    def built(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(IntMatrix, "diagonal", staticmethod(built))
    for build, message in (
            (lambda: d_matrix(20, 2, 6), "D(20,2,6) would be 170x23256"),
            (lambda: w_matrix(20, 2, 6), "W(20,2,6) would be 170x23256"),
            (lambda: d_matrix(30, 3, 9), "D(30,3,9) would be 3625x8454225"),
            (lambda: d_prime_entries(30, 3, 9),
             "D'(30,3,9) would be 3625x3625")):
        with pytest.raises(SizeCapExceeded, match=re.escape(message)):
            build()
