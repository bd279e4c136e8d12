import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import setsmith.exact
from setsmith.exact import (_LIST_LANE_BELOW, AbelianGroup, IntMatrix,
                            group_from_diagonal, group_from_smith,
                            smith_normal_form)
from setsmith.oracle import (SizeCapExceeded, THEOREMS, bench,
                             brute_force_group, closed_form_entries,
                             closed_form_group, scheme_element_matrix,
                             verify_closed_form)
from setsmith.scheme import (ParameterError, SchemeParams, eigenvalues,
                             smith_group)


def test_brute_force_matches_published_example():
    got = brute_force_group(SchemeParams(12, 3, 3, 3), (0, 1, 3, 0), 0)
    want = group_from_diagonal([(3, 2), (14364, 1), (2, 10), (342, 10),
                                (12, 43), (6, 100)])
    assert got == want


def test_brute_force_petersen_vs_independent_matrix():
    verts = list(combinations(range(1, 6), 2))
    adj = IntMatrix([[1 if not set(u) & set(v) else 0 for v in verts]
                     for u in verts])
    direct = group_from_smith(smith_normal_form(adj), len(verts))
    assert direct == brute_force_group(SchemeParams(5, 2, 2, 0))
    assert direct.order() == 48  # |det| of the Petersen adjacency matrix


def test_brute_force_identity_params():
    got = brute_force_group(SchemeParams(7, 3, 3, 3))
    assert got == AbelianGroup()


def test_brute_force_cap():
    with pytest.raises(SizeCapExceeded):
        brute_force_group(SchemeParams(16, 3, 3, 0), cap=500)
    # cap is inclusive
    brute_force_group(SchemeParams(10, 2, 3, 1), cap=comb(10, 3))


def test_brute_force_small_n_regime():
    # below n = 3k - 1 only the oracle works; the reduction refuses
    p = SchemeParams(6, 3, 3, 0)
    g = brute_force_group(p)
    assert g.free_rank == comb(6, 3) - smith_normal_form(
        scheme_element_matrix(p)).rank
    with pytest.raises(ParameterError):
        smith_group(p)


def test_closed_form_spot_values():
    entries = closed_form_entries("johnson_k2_laplacian", 7)
    assert sorted(entries) == sorted([(12, 8), (84, 5), (1, 5), (1, 1),
                                      (4, 1), (0, 1)])
    entries = dict(closed_form_entries("kneser_k2_laplacian", 9))
    assert entries[15] == 1  # C(6, 2) appears once
    entries = closed_form_entries("nonsquare_231", 9)
    assert (18, 1) in entries and (6, 1) in entries
    entries = closed_form_entries("nonsquare_231", 10)
    assert (3 * 7 * 4, 1) in entries and (2, 1) in entries


def test_closed_form_errors():
    with pytest.raises(ParameterError):
        closed_form_entries("nope", 9)
    with pytest.raises(ParameterError):
        closed_form_entries("johnson_k3_laplacian", 6)
    with pytest.raises(ParameterError):
        verify_closed_form("johnson_k2_laplacian", 4)


def test_verify_closed_form_examples():
    rep = verify_closed_form("johnson_k2_laplacian", 7)
    assert rep.all_agree and rep.oracle is not None
    rep = verify_closed_form("kneser_k2_laplacian", 9)
    assert rep.all_agree
    rep = verify_closed_form("nonsquare_231", 9)
    assert rep.all_agree
    d = rep.to_json_dict()
    assert d["agreement"]["all"] is True
    assert d["structured"]["free_rank"] == comb(9, 3) - comb(9, 2)


def test_verify_below_reduction_range_uses_oracle_only():
    rep = verify_closed_form("johnson_k3_laplacian", 7)
    assert rep.structured is None
    assert rep.structured_vs_closed is None
    assert rep.closed_vs_oracle is True
    assert rep.all_agree


def test_oracle_equivalence_random_combinations():
    # two-digit coefficients and shifts, and shifts at an eigenvalue (a
    # singular matrix); n = 11, 12 take fewer draws, each dense SNF there
    # costing up to 0.5 s
    rng = random.Random(99)
    for n in range(2, 13):
        for k in (1, 2, 3):
            if n < 3 * k - 1:
                continue
            p = SchemeParams(n, k, k, k)
            for _ in range(20 if n <= 10 else 8):
                coeffs = tuple(rng.randint(-99, 99) for _ in range(k + 1))
                spectrum = [e.eigenvalue for e in eigenvalues(p, coeffs)]
                lam = rng.choice([0, 1, -1, rng.randint(-99, 99),
                                  rng.choice(spectrum)])
                structured = smith_group(p, coeffs, lam).group
                brute = brute_force_group(p, coeffs, lam)
                assert structured == brute, (n, k, coeffs, lam)


def test_oracle_matches_the_blocks_up_to_2_64(monkeypatch):
    # coefficients and shifts of 16 to 64 bits, eigenvalue shifts
    # included, kr <= kc <= 3: the dense oracle agrees with the block
    # reduction.  kr >= 2 makes every dense matrix 55 x 55 or larger, and
    # the spy requires the valence lane to answer each, so that no matrix
    # of 20 or more rows and columns reaches the list lane
    eliminate = setsmith.exact._eliminate

    def small_only(a, m, n):
        assert min(m, n) < _LIST_LANE_BELOW, (m, n)
        return eliminate(a, m, n)
    monkeypatch.setattr(setsmith.exact, "_eliminate", small_only)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(11, 12), ks=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
           bits=st.sampled_from([16, 30, 40, 62, 64]),
           shift=st.sampled_from(["none", "eigenvalue", "any"]),
           seed=st.integers(0, 2 ** 32))
    def check(n, ks, bits, shift, seed):
        rng = random.Random(seed)
        kr, kc = ks
        p = SchemeParams(n, kr, kc, kr)
        top = 2 ** bits
        coeffs = tuple(rng.randint(-top, top) for _ in range(kr + 1))
        lam = 0
        if kr == kc and shift == "eigenvalue":
            lam = rng.choice([e.eigenvalue for e in eigenvalues(p, coeffs)])
        elif kr == kc and shift == "any":
            lam = rng.randint(-top, top)
        assert brute_force_group(p, coeffs, lam) \
            == smith_group(p, coeffs, lam).group

    check()


def test_bench_reports():
    rep = bench(SchemeParams(12, 3, 3, 1), repeats=1)
    assert rep.agree is True
    assert rep.brute_ms is not None and rep.structured_ms >= 0
    d = rep.to_json_dict()
    assert d["matrix_size"] == comb(12, 3)
    rep = bench(SchemeParams(16, 3, 3, 0), cap=500)
    assert rep.brute_ms is None and rep.agree is None
    assert rep.group.runs  # structured arm still produced output
    rep = bench(SchemeParams(2, 1, 1, 1))
    assert rep.matrix_size == 2 and rep.agree is True
    with pytest.raises(ParameterError):
        bench(SchemeParams(8, 2, 2, 1), repeats=0)


def test_every_theorem_has_usable_metadata():
    for tid, cf in THEOREMS.items():
        assert cf.min_n >= 2
        p = cf.params(cf.min_n)
        assert p.n == cf.min_n
        assert closed_form_group(tid, cf.min_n) is not None


def test_gcd_term_depends_only_on_n_mod_12():
    # empirical: the gcd appearing in the k=3 near-identity adjacency table
    from math import gcd
    def x_of(n):
        return gcd(3 * (n - 3) * (2 * n - 9),
                   (n - 7) * (n - 3) * (2 * n - 9),
                   12, 2 * n * (n - 7), 3 * (n - 7))
    by_residue = {}
    for n in range(7, 101):
        by_residue.setdefault(n % 12, set()).add(x_of(n))
    assert all(len(vals) == 1 for vals in by_residue.values())
