import pytest

from setsmith.exact import stack
from setsmith.proof import e_matrices, is_unimodular
from setsmith.scheme import ParameterError
from setsmith.subsets import SUPER_STANDARD, enumerate_subsets, mu
from setsmith.superstandard import (boundary_interior_split, check_conjecture,
                                    check_simpler_lemma, p_tilde,
                                    phi_boundary_column_match, w_tilde)


def test_w_tilde_refuses_negative_n():
    with pytest.raises(ParameterError):
        w_tilde(-1, 0, 0)


def test_w_tilde_empty_row_block_is_all_ones():
    for n, j in [(9, 2), (12, 3)]:
        w = w_tilde(n, 0, j)
        assert w.shape() == (1, mu(n, j))
        assert all(v == 1 for v in w.data[0])


def test_w_tilde_shape_and_entry():
    w = w_tilde(12, 3, 3)
    assert w.shape() == (100, 154)
    r = w.row_labels.index((2, 4, 6))
    c = w.col_labels.index((2, 4, 6))
    assert w.data[r][c] == 1
    w2 = w_tilde(12, 2, 3)
    r = w2.row_labels.index((2, 4))
    c = w2.col_labels.index((2, 4, 6))
    assert w2.data[r][c] == 1
    c = w2.col_labels.index((3, 5, 7))
    assert w2.data[r][c] == 0


def test_p_tilde_counterexample_dimensions_and_rank():
    m = p_tilde(9, 3, 4)
    assert m.shape() == (48, 42)
    rep = check_conjecture(9, 3, 4)
    assert rep.rank == 41
    assert not rep.holds
    assert not rep.in_hypothesis
    assert rep.note != ""


def test_p_tilde_trivial_and_square():
    assert p_tilde(7, 0, 0).data == [[1]]
    m = p_tilde(12, 3, 3)
    assert m.shape() == (154, 154)


def test_p_tilde_is_the_stack_of_w_tilde():
    # p_tilde is one inclusion over the super-standard subsets of size <= i
    for n in range(14):
        for i in range(n // 2 + 2):
            for j in range(n // 2 + 2):
                got = p_tilde(n, i, j)
                want = stack([w_tilde(n, s, j) for s in range(i + 1)])
                assert got == want
                assert got.row_labels == want.row_labels
                assert got.col_labels == want.col_labels


def test_p_tilde_row_counts_match_mu():
    for n in range(2, 13):
        for i in range(4):
            if n >= 3 * i - 1:
                assert p_tilde(n, i, i).rows == mu(n, i), (n, i)


def test_check_conjecture_reports():
    rep = check_conjecture(12, 3, 3)
    assert rep.holds and rep.unimodular_when_square and rep.in_hypothesis
    rep = check_conjecture(10, 0, 0)
    assert rep.holds and rep.index == 1
    rep = check_conjecture(12, 2, 3)
    assert rep.holds and not rep.unimodular_when_square
    d = rep.to_json_dict()
    assert d["rank"] == min(rep.rows, rep.cols) and d["holds"]


def test_simpler_lemma():
    assert check_simpler_lemma(12, 2, 3)
    assert check_simpler_lemma(10, 1, 3)
    assert check_simpler_lemma(11, 2, 2)
    for n in (9, 10, 11, 12):
        for j in range(4):
            for i in range(j + 1):
                if n >= 3 * j - 1:
                    assert check_simpler_lemma(n, i, j), (n, i, j)
    with pytest.raises(ParameterError):
        check_simpler_lemma(10, 2, 1)


def test_boundary_interior_split():
    for n, i, j in [(10, 2, 2), (12, 3, 3), (9, 0, 3), (11, 2, 3)]:
        sp = boundary_interior_split(n, i, j)
        assert sp.zero_block_ok, (n, i, j)
        assert sp.interior_matches, (n, i, j)
    sp = boundary_interior_split(9, 0, 3)
    assert sp.interior_block.rows == 1
    assert all(v == 1 for v in sp.interior_block.data[0])


def test_phi_boundary_column_match():
    for n in range(6, 13):
        for i in range(1, 4):
            for j in range(1, 4):
                if n < 3 * max(i, j):
                    continue
                assert phi_boundary_column_match(n, i, j), (n, i, j)


def test_superstandard_family_matches_recursive_groups():
    # the group never depends on the family; the recursive one must build,
    # and the super-standard one, p_tilde(11, s, s), must be unimodular and
    # satisfy E_s W_{s,s+1} = D_{s,s+1} E_{s+1}
    e_matrices(11, 3)
    fam = [p_tilde(11, s, s) for s in range(4)]
    for s, e in enumerate(fam):
        assert e.shape() == (mu(11, s), mu(11, s))
        assert is_unimodular(e)
    for s in range(3):
        assert check_simpler_lemma(11, s, s + 1)


def test_superstandard_counts_against_conjectured_rows():
    # stacking the <=i blocks gives mu_i rows exactly when each size block
    # has mu_s - mu_{s-1} members
    for n in (8, 10, 12):
        for i in range(4):
            if n >= 3 * i - 1:
                counts = [len(enumerate_subsets(n, s, SUPER_STANDARD))
                          for s in range(i + 1)]
                assert sum(counts) == mu(n, i)
