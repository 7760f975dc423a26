"""In-memory spans and the arithmetic the per-layer metrics are built from.

A span is (name, start, end, parent index). Spans are only appended while a
traced run is in progress; every figure is computed once, at the end, by
:func:`aggregate`.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root


class SpanRecorder:
    """Collects spans and counters; parents are tracked per thread."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def wrap(self, fn, name):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass
class LayerFigures:
    calls: int = 0      # spans not nested inside a span of the same name
    total_s: float = 0.0  # summed duration of those outermost spans
    self_s: float = 0.0   # duration minus child coverage, over every span


def aggregate(spans):
    """Per-name calls, total time and self time.

    Self time of one span is its duration minus the part of it covered by
    its children. A name that nests inside itself (a norm built from other
    norms) counts one call and one total per outermost span, so neither is
    counted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = defaultdict(LayerFigures)
    for i, s in enumerate(spans):
        fig = out[s.name]
        duration = s.end - s.start
        kids = [(spans[c].start, spans[c].end) for c in children[i]]
        fig.self_s += duration - _covered(kids, s.start, s.end)
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            fig.calls += 1
            fig.total_s += duration
    return dict(out)


class RepeatCounter:
    """Counts rows whose exact bytes (with shape and dtype) were seen before."""

    def __init__(self):
        self._seen = set()
        self.rows = 0
        self.repeats = 0

    def observe(self, batch):
        for row in batch:
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{row.dtype.str}{row.shape}".encode())
            h.update(row.tobytes())
            key = h.digest()
            self.rows += 1
            if key in self._seen:
                self.repeats += 1
            else:
                self._seen.add(key)

    @property
    def share(self):
        return self.repeats / self.rows if self.rows else 0.0
