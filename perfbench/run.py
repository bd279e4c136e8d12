"""The benchmark: one workload, one run, every answer checked.

    python3 perfbench/run.py --workload blocks|assembly|oracle --seed N \
        --seconds T --trace 0|1

Run it from the repository root.  It times set-up as cold starts of
`python -m setsmith.cli`, runs the workload in a fresh worker process
(perfbench/worker.py) for T seconds, checks every answer with
perfbench/checks.py in this process, and prints as its last line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
their times scaled to a reference machine speed (perfbench/speed.py; the
unscaled figures go to stderr); with --trace 1 its per-layer metrics, as
measured.  Spans and answers go to .perfbench_out/ at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.checks import check_answer  # noqa: E402
from perfbench.speed import (REFERENCE_COLD_S, REFERENCE_COLD_START,  # noqa: E402
                             REFERENCE_S)

# Sequential cold starts per run; set-up is their median.
COLD_STARTS = 9
# Every run must end within 180 s.
RUN_LIMIT_S = 170


def child_env() -> dict:
    """One thread for numpy/BLAS; src and the root importable."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_command(workload: str, q) -> list[str]:
    sub = "oracle" if workload == "oracle" else "smith-group"
    return [sub, *q.cli_args(), "--json"]


def cli_answer(workload: str, payload: dict) -> dict:
    """The part of the command's JSON output that the checks read."""
    if workload == "oracle":
        return {key: payload[key] for key in ("oracle", "structured", "agree")}
    return payload["group"]


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to its end (killed at the deadline); its stdout."""
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} ... exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def timed_child(argv: list[str], deadline: float) -> tuple[float, str]:
    """(wall time, stdout) of run_child."""
    t0 = perf_counter()
    out = run_child(argv, deadline)
    return perf_counter() - t0, out


def cold_starts(workload: str, q, traced: bool, deadline: float):
    """COLD_STARTS sequential fresh processes answering the first query.

    Untraced: the wall time of `python -m setsmith.cli ...`, each scaled by
    the mean of the reference cold starts (speed.REFERENCE_COLD_START) run
    just before and just after it.  Traced: the import and the query timed
    inside the process by coldstart.py, as measured.
    Returns (samples, unscaled wall times, problems)."""
    args = cli_command(workload, q)
    reference = [sys.executable, *REFERENCE_COLD_START]
    samples = []
    walls = []
    outputs = set()
    before = None if traced else timed_child(reference, deadline)[0]
    for _ in range(COLD_STARTS):
        if traced:
            rec = json.loads(run_child(
                [sys.executable, str(ROOT / "perfbench" / "coldstart.py"), *args],
                deadline).splitlines()[-1])
            if rec["exit"] != 0:
                raise RuntimeError(f"cold start exited {rec['exit']}")
            samples.append((rec["import_s"], rec["first_query_s"]))
            outputs.add(rec["output"])
        else:
            wall, out = timed_child([sys.executable, "-m", "setsmith.cli", *args],
                                    deadline)
            after, _ = timed_child(reference, deadline)
            samples.append(wall * 2 * REFERENCE_COLD_S / (before + after))
            walls.append(wall)
            outputs.add(out)
            before = after
    problems = []
    if len(outputs) != 1:
        problems.append("cold starts gave different outputs")
    for out in outputs:
        problems += check_answer(q, cli_answer(workload, json.loads(out)))
    return samples, walls, problems


def check_answers(queries, path: Path) -> tuple[list[str], int]:
    """Check the worker's warm-up answers; (problems, answers checked)."""
    problems = []
    checked = 0
    with open(path, encoding="utf-8") as fh:
        for q, line in zip(queries, fh):
            answer = json.loads(line)
            if answer is None:
                continue  # a failed query, counted as failed by the worker
            checked += 1
            problems += [f"{q}: {p}" for p in check_answer(q, answer)]
    return problems, checked


def percentile_ms(latencies_s: list[float], pct: int) -> float:
    return 1000 * statistics.quantiles(latencies_s, n=100, method="inclusive")[pct - 1]


def declared_metrics(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "setsmith").is_dir():
        print("error: src/setsmith not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    traced = bool(args.trace)
    units = declared_metrics(traced)
    queries = workloads.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)

    setup, setup_walls, problems = cold_starts(args.workload, queries[0],
                                               traced, deadline)
    out = run_child([sys.executable, "-m", "perfbench.worker",
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--out", str(OUT)], deadline)
    res = json.loads(out.splitlines()[-1])
    answers = OUT / f"answers-{args.workload}-{args.seed}.jsonl"
    found, checked = check_answers(queries, answers)
    answers.unlink()
    problems += res["problems"] + found
    if checked == 0:
        problems.append("no answer was checked")

    if traced:
        # per-layer times as measured, with the speed they were measured at
        values = dict(res["layers"])
        values["setup.import_s"] = statistics.median(s[0] for s in setup)
        values["setup.first_query_s"] = statistics.median(s[1] for s in setup)
    else:
        # end-to-end times scaled to the reference speed (see speed.py)
        scale = REFERENCE_S / res["reference_s"]
        best = [t * scale for t in res["best_s"]]
        values = {
            "setup_s": statistics.median(setup),
            "queries_per_s": len(best) / sum(best),
            "query_ms_p50": percentile_ms(best, 50),
            "query_ms_p90": percentile_ms(best, 90),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        # whole passes, which queries_per_s does not follow (see README)
        print(f"unscaled: setup_s {statistics.median(setup_walls):.4f}, "
              f"queries_per_s {len(best) / sum(res['best_s']):.3f}; reference "
              f"{1000 * res['reference_s']:.3f} ms in the worker; best of "
              f"{len(res['pass_s'])} whole passes, scaled: "
              f"{len(queries) / (min(res['pass_s']) * scale):.3f} queries/s",
              file=sys.stderr)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for p in problems[:20] + res["failures"][:5]:
        print(p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
