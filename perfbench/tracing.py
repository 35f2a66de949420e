"""Spans recorded around calls into the program's layers.

The benchmark replaces names in the calling module's namespace (for
example ``sirsupport.curves.sample_sim``) with a wrapper that records a
span: the operation it belongs to, the layer function's name, start and
end times, and the index of the enclosing span.  Spans stay in memory
and are written out when the run ends.  Nothing inside the program is
changed; a wrapper sees only a call crossing a module boundary.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from contextlib import contextmanager

CHECK = "bench.check"


class Tracer:
    def __init__(self):
        # each span: [op, name, start, end, parent, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, time.perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, fn, name: str, info=None, check=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``info(args, kwargs, result)`` attaches counts to the span;
        ``check(args, kwargs, result)`` runs in a ``bench.check`` span
        after the call, so layer times exclude it.
        """

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if info is not None:
                self.spans[index][5] = info(args, kwargs, result)
            if check is not None:
                with self.span(CHECK):
                    check(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for op, name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")

    # --- aggregation ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def infos(self, name: str) -> list:
        return [s[5] for s in self.spans if s[1] == name]

    def child_time(self) -> list[float]:
        """Time covered by each span's direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                covered[s[4]] += s[3] - s[2]
        return covered

    def self_time(self, name: str) -> float:
        covered = self.child_time()
        return sum(s[3] - s[2] - covered[i] for i, s in enumerate(self.spans) if s[1] == name)

    def check_time(self, name: str) -> float:
        """Time of ``bench.check`` spans anywhere below spans called ``name``."""
        total = 0.0
        for s in self.spans:
            if s[1] != CHECK:
                continue
            parent = s[4]
            while parent >= 0 and self.spans[parent][1] != name:
                parent = self.spans[parent][4]
            if parent >= 0:
                total += s[3] - s[2]
        return total


@contextmanager
def patched(targets):
    """Temporarily set ``module.attr = value`` for each (module, attr, value)."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, traced - bare) / calls


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
