"""Spans recorded from outside the program, around calls into its layers.

A span has a name, a start and an end (perf_counter seconds), the index of
the span that encloses it, the query it belongs to, and counters.  Spans
stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "attrs")

    def __init__(self, name, start, parent, qid):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.qid = qid
        self.attrs = {}

    def to_json_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "query": self.qid, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: int):
        parent = self._open[-1] if self._open else -1
        rec = Span(name, perf_counter(), parent, qid)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: total self seconds, the number of distinct queries
        it ran in, the sum of each additive counter and the max of each
        counter whose name starts with "max_"."""
        acc = defaultdict(lambda: {"self_s": 0.0, "queries": set(),
                                   "counters": {}})
        for s, t in zip(self.spans, self.self_times()):
            a = acc[s.name]
            a["self_s"] += t
            a["queries"].add(s.qid)
            for key, v in s.attrs.items():
                old = a["counters"].get(key, 0)
                a["counters"][key] = max(old, v) if key.startswith("max_") else old + v
        return {name: dict(a, queries=len(a["queries"])) for name, a in acc.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json_dict()) + "\n")
