"""Seeded inputs of the three workloads.

Each workload is a list of queries, one pass.  The same seed always gives
the same list; a run repeats the list in whole passes, so every pass has
the same multiset of queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

WORKLOADS = ("blocks", "assembly", "oracle")

# blocks: k = 1..5, n on an even grid from 3k-1 while C(n,k) stays at or
# below C(15,5); the seed draws the coefficients and the shift.
BLOCK_KS = (1, 2, 3, 4, 5)
BLOCK_CAP = comb(15, 5)
BLOCK_PER_K = 60

# assembly: per k and graph matrix a ladder of n whose C(n,k) falls by
# sqrt(2) per rung from the top rung down to C(28,k).  The top is kept near
# 60k so that a pass takes a few seconds and each query is timed in several
# passes of a run.
ASSEMBLY_KS = (2, 3, 4)
ASSEMBLY_TOP = 60_000
ASSEMBLY_FLOOR_N = 28

# oracle: every Johnson/Kneser adjacency and Laplacian with 55-210 columns,
# plus combinations with two-digit coefficients on 56-105 columns.  The
# combinations are drawn once, from a fixed generator: the cost of one
# varies up to tenfold with its coefficients, and seeded draws moved the
# median query by up to a third between seeds.
ORACLE_GRAPH_NS = {2: range(11, 22), 3: range(8, 12)}
ORACLE_COMBO_CELLS = ((2, 12), (2, 13), (2, 14), (2, 15), (3, 8))
ORACLE_COMBOS_PER_CELL = 8


@dataclass(frozen=True)
class Query:
    """One input: sum_l coeffs[l] A(n,k,k,l) - lam*I."""

    n: int
    k: int
    coeffs: tuple[int, ...]
    lam: int
    kind: str               # "graph" or "combo"
    label: str              # graph family, or "combo"
    ell: int | None = None  # graphs only: the single nonzero coefficient
    laplacian: bool = False

    def cli_args(self) -> list[str]:
        """Element flags of `setsmith smith-group` / `setsmith oracle`."""
        args = ["--n", str(self.n), "--k", str(self.k)]
        if self.kind == "graph":
            args += ["--ell", str(self.ell)]
            if self.laplacian:
                args += ["--lambda", "degree"]
        else:
            args += ["--coeffs=" + ",".join(map(str, self.coeffs)),
                     f"--lambda={self.lam}"]
        return args


def graph_query(n: int, k: int, family: str, laplacian: bool) -> Query:
    ell = k - 1 if family == "johnson" else 0
    coeffs = tuple(1 if l == ell else 0 for l in range(k + 1))
    lam = comb(n - k, k - ell) * comb(k, ell) if laplacian else 0
    label = f"{family}-{'laplacian' if laplacian else 'adjacency'}"
    return Query(n, k, coeffs, lam, "graph", label, ell, laplacian)


GRAPH_FAMILIES = (("johnson", False), ("johnson", True),
                  ("kneser", False), ("kneser", True))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _combo(rng: random.Random, n: int, k: int, lo: int, hi: int) -> Query:
    def draw():
        v = rng.randint(lo, hi)
        return -v if rng.random() < 0.5 else v
    coeffs = tuple(draw() for _ in range(k + 1))
    return Query(n, k, coeffs, draw(), "combo", "combo")


def _first_then_shuffled(rng: random.Random, queries: list[Query]) -> list[Query]:
    """Keep the first query in place (it is the set-up query) and shuffle
    the rest, so that a burst of machine noise does not land on one class."""
    rest = queries[1:]
    rng.shuffle(rest)
    return queries[:1] + rest


def blocks(seed: int) -> list[Query]:
    rng = _rng("blocks", seed)
    out = []
    for k in BLOCK_KS:
        n_max = max(n for n in range(3 * k - 1, BLOCK_CAP + 1)
                    if comb(n, k) <= BLOCK_CAP)
        lo = 3 * k - 1
        for i in range(BLOCK_PER_K):
            n = lo + round(i * (n_max - lo) / (BLOCK_PER_K - 1))
            out.append(_combo(rng, n, k, 0, 99))
    return _first_then_shuffled(rng, out)


def assembly_ladder(k: int, offset: float) -> list[int]:
    """n values whose C(n,k) falls by sqrt(2) per rung from
    ASSEMBLY_TOP / sqrt(2)**offset down to C(ASSEMBLY_FLOOR_N, k)."""
    n = k
    while comb(n + 1, k) <= ASSEMBLY_TOP:
        n += 1
    floor = comb(ASSEMBLY_FLOOR_N, k)
    out = []
    target = comb(n, k) / 2 ** (offset / 2)
    while target >= floor:
        while comb(n - 1, k) >= target:
            n -= 1
        out.append(n)
        target /= 2 ** 0.5
    return sorted(out)


def assembly(seed: int) -> list[Query]:
    """The graph matrices are fixed by the ladders; the seed orders the pass.
    (Moving rungs by the seed only moved the median between rungs.)  Each
    of the four graph matrices has its own ladder, offset by a quarter
    rung from the last, so that the sizes are graded rather than four of
    a kind on each rung."""
    rng = _rng("assembly", seed)
    out = []
    for k in ASSEMBLY_KS:
        for j, (fam, lap) in enumerate(GRAPH_FAMILIES):
            out.extend(graph_query(n, k, fam, lap)
                       for n in assembly_ladder(k, j / 4))
    out.sort(key=lambda q: comb(q.n, q.k))
    return _first_then_shuffled(rng, out)


def oracle(seed: int) -> list[Query]:
    """The graph matrices and the combinations are fixed; the seed orders
    the pass."""
    out = [graph_query(n, k, fam, lap)
           for k, ns in ORACLE_GRAPH_NS.items() for n in ns
           for fam, lap in GRAPH_FAMILIES]
    fixed = _rng("oracle-combos", 0)
    for k, n in ORACLE_COMBO_CELLS:
        out.extend(_combo(fixed, n, k, 10, 99)
                   for _ in range(ORACLE_COMBOS_PER_CELL))
    return _first_then_shuffled(_rng("oracle", seed), out)


def make(workload: str, seed: int) -> list[Query]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return {"blocks": blocks, "assembly": assembly, "oracle": oracle}[workload](seed)
