"""The machine's speed, from fixed reference computations interleaved with
what is measured.

The VM this benchmark was built on runs at speeds that differ by up to
1.7x between stretches of a fraction of a second to minutes, so that two
runs of the same code minutes apart disagree by more than any useful
bound.  The benchmark therefore interleaves what it measures with fixed
work that does not use setsmith, and scales its end-to-end times to the
time that work takes at the machine's usual speed:

- in the worker, reference_work() (a Python integer loop, small and
  200 x 200 int64 numpy arrays, json) runs between short segments of
  queries.  Its fast time (the 5th percentile of its samples) gives the
  machine's speed in its fast stretches, in which the best latency of
  each query was measured.  Scaling by each segment's own samples
  followed the queries less well: the slow stretches slow `blocks` about
  2x and the reference about 1.5x;
- for set-up, a cold start of REFERENCE_COLD_START is run before and
  after each cold start of the command line, which is scaled by the mean
  of the two.  Cold starts follow the machine's speed poorly from
  in-process work: they are mostly interpreter start-up and imports.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# What one reference_work() call takes at the usual speed of the machine
# the benchmark was written on, so that scaled times stay close to wall
# times there.
REFERENCE_S = 0.0035
# A cold start of the interpreter that imports what setsmith.cli imports
# from outside setsmith, and what it takes there.
REFERENCE_COLD_START = ["-c", "import numpy, json, argparse, fractions"]
REFERENCE_COLD_S = 0.15


def reference_work() -> int:
    acc = 0
    xs = list(range(1000))
    for i in range(7500):
        acc = (acc * 31 + xs[i % 1000]) % 1000003
    a = np.arange(36, dtype=np.int64).reshape(6, 6)
    for _ in range(100):
        a = (a * 3 + 1) % 1009
        acc += int(np.abs(a).max())
    # row eliminations on a 200 x 200 int64 array, as in a dense reduction
    b = np.arange(40000, dtype=np.int64).reshape(200, 200) % 97
    for t in range(0, 200, 40):
        b[t + 1:] -= (b[t + 1:, t:t + 1] // 7) * b[t]
        b %= 1000003
        acc += int(np.abs(b[t:, t:]).max())
    acc += len(json.dumps([[i, i * i] for i in range(750)]))
    return acc


class Speedometer:
    """Times of reference_work(), one per sample."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - t0)

    @property
    def fast_s(self) -> float:
        """The 5th percentile of the samples."""
        return statistics.quantiles(self.samples, n=20)[0]
