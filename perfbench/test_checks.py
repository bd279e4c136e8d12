"""Tests of the benchmark's own checker: it accepts the program's answers
and rejects answers with one invariant factor or the free rank changed.

Run with `python3 -m pytest perfbench/test_checks.py` from the repository
root (with `src` on PYTHONPATH), or as `python3 perfbench/test_checks.py`.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from setsmith import SchemeParams, eigenvalues, smith_group  # noqa: E402

from perfbench.checks import check_answer, check_group, spectrum  # noqa: E402
from perfbench.workloads import graph_query, make  # noqa: E402


def _group(q):
    return smith_group(SchemeParams(q.n, q.k, q.k, q.k), q.coeffs,
                       q.lam).group.to_json_dict()


def _cases():
    """Laplacians (zero row sums), adjacency matrices with a published
    table, and nonsingular random combinations."""
    out = [graph_query(n, k, fam, lap) for n, k in ((9, 2), (13, 3), (14, 4))
           for fam in ("johnson", "kneser") for lap in (False, True)]
    out += make("blocks", 7)[:40]
    return out


def test_eberlein_spectrum_matches_program():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 5)
        n = rng.randint(3 * k - 1, 3 * k + 20)
        coeffs = [rng.randint(-99, 99) for _ in range(k + 1)]
        lam = rng.randint(-99, 99)
        p = SchemeParams(n, k, k, k)
        want = [(s.eigenvalue, s.multiplicity)
                for s in eigenvalues(p, coeffs, lam)]
        assert spectrum(n, k, coeffs, lam) == want


def test_accepts_program_answers():
    for q in _cases():
        assert check_answer(q, _group(q)) == [], q


def test_rejects_factor_times_prime():
    checked = 0
    for q in _cases():
        g = _group(q)
        if not g["invariant_factors"]:
            continue
        for p in (2, 3, 101):
            bad = dict(g, invariant_factors=g["invariant_factors"][:-1]
                       + [g["invariant_factors"][-1] * p])
            assert check_answer(q, bad), (q, p)
            checked += 1
    assert checked > 50


def test_rejects_free_rank_off_by_one():
    for q in _cases():
        g = _group(q)
        for delta in (1, -1):
            if g["free_rank"] + delta < 0:
                continue
            bad = dict(g, free_rank=g["free_rank"] + delta)
            assert check_answer(q, bad), (q, delta)


def test_rejects_table_mismatch_with_right_order():
    # Z/2 + Z/2 in place of Z/4 keeps the order but not the group; only the
    # published table can tell.
    q = graph_query(9, 2, "johnson", True)
    g = _group(q)
    facs = g["invariant_factors"]
    assert facs[:2] == [4, 16]
    bad = dict(g, invariant_factors=[2, 2] + facs[1:])
    assert check_group(q.n, q.k, q.coeffs, q.lam, bad) == []
    assert check_answer(q, bad)


def test_oracle_answer_needs_agreement():
    q = graph_query(9, 2, "kneser", True)
    g = _group(q)
    other = dict(g, free_rank=g["free_rank"] + 1)
    assert check_answer(q, {"oracle": g, "structured": g, "agree": True}) == []
    assert check_answer(q, {"oracle": g, "structured": other, "agree": False})


def test_chain_and_unit_factors_rejected():
    assert check_group(9, 2, (0, 1, 0), 0,
                       {"invariant_factors": [1, 2], "free_rank": 0})
    assert check_group(9, 2, (0, 1, 0), 0,
                       {"invariant_factors": [3, 4], "free_rank": 0})


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main([__file__, "-q"]))
