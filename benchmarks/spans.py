"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start_ns, end_ns, parent, request): ``parent`` is the index
of the enclosing span or -1, and ``request`` tags the request the span
belongs to.  Spans stay in memory while the benchmark runs and are written
out once at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request: int | str = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            spans[index] = (name, start, end, parent, self.request)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        call = self.call
        return lambda *args: call(name, fn, *args)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self, requests=None) -> dict[str, list[int]]:
        """Self times in ns grouped by span name, optionally only for spans
        whose request tag passes the ``requests`` filter."""
        grouped: dict[str, list[int]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_times()):
            if requests is None or requests(span[4]):
                grouped[span[0]].append(own)
        return grouped

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps([name, start, end, parent, request]) + "\n")
