"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, op): times from perf_counter, the
index of the enclosing span or -1, and the id of the operation it belongs
to (-1 for set-up and probes).  Spans are kept in a list and written out
once, after the run; an untraced run never creates a Tracer.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def summary(self) -> dict:
        """Per span name: calls, total seconds, and total self seconds (the
        span's duration minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, self_total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_total + end - start - child_time[i])
        return out


def untraced(name: str, fn, *args, **kwargs):
    """The untraced counterpart of Tracer.call: no span, no bookkeeping."""
    return fn(*args, **kwargs)
