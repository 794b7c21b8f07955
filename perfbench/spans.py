"""In-memory span recorder, self-time aggregation and run statistics.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one began, or -1. Spans are kept in flat arrays so
that a sweep over tens of thousands of graphs costs little memory, and they
are written out only after the timed region ends.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import defaultdict


class Tracer:
    """Records spans around calls made from outside the program, plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counters: dict[str, float] = defaultdict(int)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in the order they opened")

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def self_seconds_by_name(self) -> dict[str, float]:
        """Sum of self time per span name."""
        own = self_times(self.start, self.end, self.parent)
        out: dict[str, float] = defaultdict(float)
        for nid, t in zip(self.name_id, own):
            out[self.names[nid]] += t
        return dict(out)

    def root_seconds(self) -> float:
        """Sum of the durations of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path) -> None:
        origin = self.start[0] if self.start else 0.0
        rows = [
            [self.names[n], s - origin, e - origin, p]
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, fh)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, p in enumerate(parent):
        if p >= 0:
            children[p].append(idx)
    out = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(idx, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], lo), min(end[c], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def summary(values: list[float]) -> tuple[float, float, float, int]:
    """(median, first quartile, third quartile, count).

    Quartiles follow ``statistics.quantiles(values, n=4)``; a single value
    is its own median and quartiles.
    """
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = values[0]
        return v, v, v, 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)
