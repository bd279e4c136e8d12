"""Steadiness of the benchmark: run every workload N times, one seed each,
and print each metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --runs 10 [--against .perfbench_out/steady-<stamp>.json]

Run it from the repository root.  Every workload of BENCHMARK.json runs
with seeds 1..N.  The spread is the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median; a
metric is steady when that stays under a third of its bound in
BENCHMARK.json.  With --against, it also prints how far each median moved,
in its worse direction, from an earlier set of runs, and that drift must
stay within the bound.  The results are saved as
.perfbench_out/steady-<stamp>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="perfbench/steady.py")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = (json.loads(args.against.read_text(encoding="utf-8"))
              if args.against else None)

    saved = {}
    ok = True
    for workload in names:
        runs = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok &= all(r["correct"] for r in runs) and len(shares) == 1
        print(f"\n{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}{'drift':>8}")
        saved[workload] = {}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            drift = ""
            if before and workload in before:
                old = statistics.median(before[workload][name])
                worse = (med - old if m["better"] == "lower" else old - med) / old
                drift = f"{worse:+8.3f}"
                ok &= worse <= m["bound"]
            ok &= spread <= m["bound"] / 3
            print(f"  {name:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.4f}{m['bound']:>7.2f}{spread / m['bound']:>8.3f}"
                  f"{drift:>8}")
            saved[workload][name] = values
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(saved), encoding="utf-8")
    print(f"\nsteady: {ok}; values saved to {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
