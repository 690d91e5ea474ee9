"""Spans recorded around the benchmark's own calls into radiosched.

Every call the benchmark makes into a layer runs inside `span(name)`.  The
traced run gives each iteration a root span, `bench.iteration`, so a
layer's self time is its span's duration minus the part its child spans
cover, and the root's self time is the share no layer accounts for.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import NamedTuple

ROOT_SPAN = "bench.iteration"

_NO_SPAN = nullcontext()


def untraced(name: str):
    """Stand-in for `Tracer.span` when tracing is off."""
    return _NO_SPAN


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.iteration = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.iteration)

    def per_iteration(self) -> list[tuple[dict[str, float], dict[str, float]]]:
        """(self time, total time) by span name, summed within each iteration,
        in iteration order."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        by_iteration: dict[int, tuple[dict[str, float], dict[str, float]]] = {}
        for s, cov in zip(self.spans, covered):
            own, total = by_iteration.setdefault(s.iteration, ({}, {}))
            own[s.name] = own.get(s.name, 0.0) + (s.end - s.start - cov)
            total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        return [by_iteration[i] for i in sorted(by_iteration)]

    def write(self, path) -> None:
        """One JSON object per span: name, start and end in seconds from the
        first span, parent span index, iteration id."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "iteration": s.iteration,
                }
                fh.write(json.dumps(record) + "\n")
