"""In-memory span recorder installed around liouq's public functions.

A span records its name, start, end, parent span and the trace
(benchmark iteration) it belongs to.  Spans are kept in memory and
written out once, when the benchmark ends.  The program's files are
never changed: ``patched`` swaps module attributes for recording
wrappers and restores them on exit.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of a single-threaded program."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.trace = 0
        self._clock = clock
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self._clock()
        try:
            yield sid
        finally:
            end = self._clock()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.trace))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return recorded

    @contextmanager
    def patched(self, targets):
        """Record calls made through ``module.attr`` for each target.

        ``targets`` holds ``(module, attr)`` pairs; a span is named
        after the module defining the function, e.g. ``grids.save_state``.
        Attributes a module does not have are skipped.
        """
        saved = []
        try:
            for module, attr in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path, extra=None) -> None:
        doc = dict(extra or {})
        doc["spans"] = [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        inside = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _covered(inside)
    return out


def totals_by_trace(spans) -> dict:
    """trace -> name -> {"s": total seconds, "self_s": self seconds, "calls": n}."""
    selfs = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}))
    for s in spans:
        entry = out[s.trace][s.name]
        entry["s"] += s.duration
        entry["self_s"] += selfs[s.id]
        entry["calls"] += 1
    return out
