"""In-memory spans for the traced run.

A span records its name, start, end, the span that caused it and the
operation it belongs to.  Spans stay in memory and are written out once,
when the run ends.  A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, now=perf_counter) -> None:
        self.now = now
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = ""

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if op is not None:
            self._op = op
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, self._op, name, 0.0, 0.0))
        self._stack.append(sid)
        start = self.now()
        try:
            yield
        finally:
            end = self.now()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._op, name, start, end)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self, first: int, last: int | None, scale) -> dict[str, float]:
        """Total self time per span name over ``spans[first:last]``.

        ``scale(start, end)`` converts a raw duration into the unit reported.
        """
        covered: dict[int, float] = defaultdict(float)
        totals: dict[str, float] = defaultdict(float)
        for sid, parent, _, name, start, end in reversed(self.spans[first:last]):
            length = (end - start) * scale(start, end)
            totals[name] += length - covered[sid]
            if parent is not None:
                covered[parent] += length
        return totals

    def durations(self, name: str, first: int, last: int | None, scale) -> list[float]:
        return [(end - start) * scale(start, end)
                for _, _, _, n, start, end in self.spans[first:last] if n == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
