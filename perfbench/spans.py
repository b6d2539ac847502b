"""In-memory span recorder for the traced benchmark run.

A span is one timed call from the benchmark into a layer of the package:
name, start, end, the index of the enclosing span and the ideal it worked
on.  Spans stay in a list until the run ends; `summarise` folds them into
per-name call counts, busy time and self time, where self time is a span's
duration minus the union of its children's intervals (clipped to the
span), so overlapping children are not subtracted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    ideal: str | None


class Recorder:
    """Records nested spans; `call` times one function call as a span."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, ideal: str | None = None):
        parent = self._open[-1] if self._open else None
        record = Span(name, self.clock(), 0.0, parent, ideal)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = self.clock()

    def call(self, name: str, fn, *args, ideal: str | None = None, **kwargs):
        with self.span(name, ideal):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


class NullRecorder:
    """Stand-in for untraced runs: calls straight through, records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, ideal: str | None = None):
        yield None

    def call(self, name: str, fn, *args, ideal: str | None = None, **kwargs):
        return fn(*args, **kwargs)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, [])
            if min(e, span.end) > max(s, span.start)
        ]
        result.append(span.end - span.start - union_length(clipped))
    return result


def summarise(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (summed durations) and self_s."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += span.end - span.start
        row["self_s"] += own
    return table


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of [start, end] covered by top-level spans."""
    tops = [(max(s.start, start), min(s.end, end)) for s in spans if s.parent is None]
    return union_length([iv for iv in tops if iv[1] > iv[0]]) / (end - start)
