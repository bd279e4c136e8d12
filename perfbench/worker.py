"""One workload in one fresh process: a closed loop of queries, one at a
time on one thread.

    python3 -m perfbench.worker --workload W --seed S --seconds T --trace 0|1 --out DIR

(run from the repository root with `src` and the root on PYTHONPATH; the
benchmark's run.py starts it that way).  It runs an untimed warm-up pass
and writes its answers to DIR/answers-W-S.jsonl for the checks, which run
in another process so that they never set this process's peak memory.
Then it runs whole timed passes for T seconds; each answer must equal the
warm-up answer to the same query.  It reports each pass's time and each
query's best latency over the passes.  Reference work (perfbench/speed.py)
runs after every SEGMENT_S of queries, outside the times measured.  With
--trace 1 a traced pass follows each timed pass, and the largest queries
run once more under tracemalloc.  It prints one JSON line with its
measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tracemalloc
from math import comb
from pathlib import Path
from time import perf_counter

from setsmith import (SchemeParams, brute_force_group, group_from_diagonal,
                      group_from_smith, ms_matrices, scheme_element_matrix,
                      smith_group, smith_normal_form)

from perfbench import workloads
from perfbench.speed import Speedometer
from perfbench.tracing import Tracer

# Query time between two reference samples in a timed pass.
SEGMENT_S = 0.1
# tracemalloc slows a query about tenfold, so the allocation peak is taken
# on the queries with the largest C(n,k) only, where it is highest.
ALLOC_SAMPLE = 4


def _params(q) -> SchemeParams:
    return SchemeParams(q.n, q.k, q.k, q.k if q.ell is None else q.ell)


def fast_query(q) -> str:
    """What `setsmith smith-group --json` computes for the group."""
    group = smith_group(_params(q), q.coeffs, q.lam).group
    return json.dumps(group.to_json_dict())


def oracle_query(q) -> str:
    """What `setsmith oracle --json` computes: the dense group, the block
    group, and whether they agree."""
    p = _params(q)
    dense = brute_force_group(p, q.coeffs, q.lam)
    structured = smith_group(p, q.coeffs, q.lam).group
    return json.dumps({"oracle": dense.to_json_dict(),
                       "structured": structured.to_json_dict(),
                       "agree": dense == structured})


def traced_fast_query(q, tr: Tracer, qid: int):
    """fast_query, one public function at a time; returns (answer, group)."""
    p = _params(q)
    with tr.span("query", qid):
        with tr.span("scheme.ms_matrices", qid) as sp:
            blocks = ms_matrices(p, q.coeffs, q.lam)
        sp.attrs["blocks"] = len(blocks)
        entries = []
        used_rank = 0
        for m in blocks:
            with tr.span("exact.snf.block", qid) as sp:
                snf = smith_normal_form(m.entries)
            sp.attrs["calls"] = 1
            sp.attrs["max_entry_bits"] = m.entries.max_abs().bit_length()
            entries.extend((d, m.multiplicity) for d in snf.invariant_factors)
            used_rank += snf.rank * m.multiplicity
        entries.append((0, comb(q.n, q.k) - used_rank))
        with tr.span("exact.group_from_diagonal", qid) as sp:
            group = group_from_diagonal(entries)
        facs = group.invariant_factors
        sp.attrs.update(pairs_in=len(entries), factors_out=len(facs),
                        max_factor_bits=facs[-1].bit_length() if facs else 0)
        with tr.span("serialize", qid) as sp:
            text = json.dumps(group.to_json_dict())
        sp.attrs["bytes"] = len(text)
    return text, group


def traced_oracle_query(q, tr: Tracer, qid: int):
    """oracle_query with the dense path one public function at a time;
    returns (answer, dense group)."""
    p = _params(q)
    with tr.span("query", qid):
        with tr.span("scheme.scheme_element_matrix", qid) as sp:
            m = scheme_element_matrix(p, q.coeffs, q.lam)
        sp.attrs["cells"] = m.rows * m.cols
        with tr.span(f"exact.snf.dense.{q.kind}s", qid):
            snf = smith_normal_form(m)
        with tr.span("exact.group_from_smith", qid):
            dense = group_from_smith(snf, m.cols)
        with tr.span("oracle.fastpath", qid):
            structured = smith_group(p, q.coeffs, q.lam).group
        with tr.span("serialize", qid) as sp:
            text = json.dumps({"oracle": dense.to_json_dict(),
                               "structured": structured.to_json_dict(),
                               "agree": dense == structured})
        sp.attrs["bytes"] = len(text)
    return text, dense


def _digest(text: str) -> bytes:
    return hashlib.sha1(text.encode()).digest()


class Loop:
    """The closed loop over one pass of queries, with its tallies."""

    def __init__(self, queries, query_fn):
        self.queries = queries
        self.query_fn = query_fn
        self.expected: list[bytes | None] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # wrong answers
        self.failures: list[str] = []   # queries that raised

    def warm_up(self, answers_path: Path) -> None:
        with open(answers_path, "w", encoding="utf-8") as fh:
            for q in self.queries:
                text = self._attempt(q, self.query_fn)
                self.expected.append(None if text is None else _digest(text))
                fh.write(("null" if text is None else text) + "\n")

    def _attempt(self, q, fn, *args):
        """fn(q, *args), counted; None when it raised."""
        self.attempted += 1
        try:
            return fn(q, *args)
        except Exception as exc:  # a failed query is counted, not fatal
            self.failed += 1
            self.failures.append(f"{q}: {type(exc).__name__}: {exc}")
            return None

    def _answered(self, i: int, q, text: str) -> None:
        if _digest(text) != self.expected[i]:
            self.problems.append(f"{q}: answer differs from the warm-up pass")

    def timed_pass(self, speed: Speedometer, best: list[float]) -> float:
        """One pass, with a reference sample after every SEGMENT_S of
        queries.  Lowers best[i] to query i's latency when that is less;
        returns the pass's wall time less the reference samples."""
        pass_s = 0.0
        speed.sample()
        start = perf_counter()
        for i, q in enumerate(self.queries):
            t0 = perf_counter()
            text = self._attempt(q, self.query_fn)
            t1 = perf_counter()
            if text is not None:
                best[i] = min(best[i], t1 - t0)
                self._answered(i, q, text)
            if t1 - start >= SEGMENT_S:
                pass_s += perf_counter() - start
                speed.sample()
                start = perf_counter()
        return pass_s + perf_counter() - start

    def traced_pass(self, tr: Tracer, traced_fn, reference_fn,
                    best: list[float], speed: Speedometer) -> None:
        """One traced pass; best[i] as in timed_pass, for the query span.
        Reference samples follow the queries as in timed_pass: they slow
        the query after them, and the tracing overhead must not count that."""
        speed.sample()
        spent = 0.0
        for i, q in enumerate(self.queries):
            root = len(tr.spans)
            out = self._attempt(q, traced_fn, tr, root)
            if out is None:
                continue
            latency = tr.spans[root].end - tr.spans[root].start
            best[i] = min(best[i], latency)
            spent += latency
            if spent >= SEGMENT_S:
                speed.sample()
                spent = 0.0
            text, group = out
            self._answered(i, q, text)
            # outside every span: the decomposed result must equal the
            # library call's result on the same input
            if group != reference_fn(q):
                self.problems.append(f"{q}: decomposed result differs from "
                                     "the library call")

    def alloc_peak_mb(self) -> float:
        """Largest per-query allocation peak, from tracemalloc, over the
        ALLOC_SAMPLE queries with the largest C(n,k)."""
        answered = [q for q, e in zip(self.queries, self.expected) if e is not None]
        sample = sorted(answered, key=lambda q: comb(q.n, q.k))[-ALLOC_SAMPLE:]
        peak = 0
        tracemalloc.start()
        try:
            for q in sample:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                self.query_fn(q)
                _, top = tracemalloc.get_traced_memory()
                peak = max(peak, top - before)
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20


def _layer_metrics(summary: dict, passes: int) -> dict:
    """Per-layer metrics from the spans: self time in ms per query that
    reached the layer, counters per pass (maxima over all passes)."""
    def ms(name):
        s = summary.get(name)
        return 1000 * s["self_s"] / s["queries"] if s else 0.0

    def count(name, key):
        s = summary.get(name)
        v = s["counters"].get(key, 0) if s else 0
        return v if key.startswith("max_") else v / passes

    return {
        "scheme.ms_matrices.ms": ms("scheme.ms_matrices"),
        "scheme.ms_matrices.blocks": count("scheme.ms_matrices", "blocks"),
        "exact.snf.block.ms": ms("exact.snf.block"),
        "exact.snf.block.calls": count("exact.snf.block", "calls"),
        "exact.snf.block.max_entry_bits": count("exact.snf.block", "max_entry_bits"),
        "exact.group_from_diagonal.ms": ms("exact.group_from_diagonal"),
        "exact.group_from_diagonal.pairs_in": count("exact.group_from_diagonal", "pairs_in"),
        "exact.group_from_diagonal.factors_out": count("exact.group_from_diagonal", "factors_out"),
        "exact.group_from_diagonal.max_factor_bits": count("exact.group_from_diagonal", "max_factor_bits"),
        "serialize.ms": ms("serialize"),
        "serialize.bytes": count("serialize", "bytes"),
        "scheme.scheme_element_matrix.ms": ms("scheme.scheme_element_matrix"),
        "scheme.scheme_element_matrix.cells": count("scheme.scheme_element_matrix", "cells"),
        "exact.snf.dense.graphs.ms": ms("exact.snf.dense.graphs"),
        "exact.snf.dense.combos.ms": ms("exact.snf.dense.combos"),
        "exact.group_from_smith.ms": ms("exact.group_from_smith"),
        "oracle.fastpath.ms": ms("oracle.fastpath"),
        "query.other_ms": ms("query"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    queries = workloads.make(args.workload, args.seed)
    is_oracle = args.workload == "oracle"
    loop = Loop(queries, oracle_query if is_oracle else fast_query)
    tag = f"{args.workload}-{args.seed}"
    loop.warm_up(args.out / f"answers-{tag}.jsonl")

    best = [float("inf")] * len(queries)
    best_traced = [float("inf")] * len(queries)
    pass_s = []
    tracer = Tracer()
    if is_oracle:
        traced_fn = traced_oracle_query

        def reference(q):
            return brute_force_group(_params(q), q.coeffs, q.lam)
    else:
        traced_fn = traced_fast_query

        def reference(q):
            return smith_group(_params(q), q.coeffs, q.lam).group

    # Whole passes while the next one, as long as the last, still ends
    # within the run's time.
    speed = Speedometer()
    start = perf_counter()
    while True:
        t0 = perf_counter()
        pass_s.append(loop.timed_pass(speed, best))
        if args.trace:
            loop.traced_pass(tracer, traced_fn, reference, best_traced, speed)
        t1 = perf_counter()
        if t1 + (t1 - t0) - start > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    answered = [b for b in best if b != float("inf")]
    result = {"attempted": loop.attempted, "failed": loop.failed,
              "problems": loop.problems[:20], "failures": loop.failures[:20],
              "pass_s": pass_s, "best_s": answered,
              "reference_s": speed.fast_s,
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        layers = _layer_metrics(tracer.summary(), len(pass_s))
        layers["assembly.alloc_peak_mb"] = loop.alloc_peak_mb()
        layers["machine.reference_ms"] = 1000 * speed.fast_s
        layers["trace.overhead_pct"] = 100 * (
            sum(b for b in best_traced if b != float("inf")) / sum(answered) - 1)
        result["layers"] = layers
        tracer.write(args.out / f"trace-{tag}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
