"""In-memory span recording around calls into clonalnet's public functions.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began. Spans stay in compact arrays until the run
ends and are written out once. Self time (a span's duration minus the time
its child spans cover) and call counts are accumulated as spans close, so
reading them needs no pass over the span arrays.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        # work counts recorded at the same boundaries as the spans
        self.counts: Counter = Counter()
        self._stack: list[list] = []   # [span index, child time] per open span

    def _open(self, name: str) -> list:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        frame = [len(self.start), 0.0]
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = perf_counter()
        index, child = frame
        self._stack.pop()
        self.end[index] = end
        duration = end - self.start[index]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(name, frame)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, result)``
        adds work counts after each successful call."""
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if count is not None:
                count(self.counts, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def root_seconds(self, name: str) -> float:
        """Summed duration of the top-level spans called ``name``."""
        nid = self._ids.get(name)
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.parent[i] == -1 and self.name_id[i] == nid)

    def dump(self, path) -> None:
        """Write every span to an ``.npz`` file, the name table as JSON."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(owner, attribute, value)`` triples, restoring the
    original attributes on exit in reverse order."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
