"""In-memory spans and per-op notes recorded around calls into the package.

A span is (name, start_ns, end_ns, parent index, op id).  Spans are kept in
a list while the benchmark runs and written out once at the end.  The
untraced runs use ``NullTracer``, whose ``call`` is a plain function call,
so the same op code serves both modes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

class NullTracer:
    on = False

    def call(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def op(self, op_id):
        yield

    def note(self, name, value):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans: list = []
        self.notes: list = []
        self._stack: list[int] = []
        self._op = None
        # Built on first query, once recording is over.
        self._spans_by_name = None
        self._notes_by_name = None

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)

    @contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def note(self, name, value):
        self.notes.append((name, value, self._op))

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of the spans called ``name``."""
        if self._spans_by_name is None:
            self._spans_by_name = defaultdict(list)
            for rec in self.spans:
                self._spans_by_name[rec[0]].append((rec[2] - rec[1]) * 1e-9)
        return self._spans_by_name.get(name, [])

    def values(self, name: str) -> list[float]:
        """Noted values called ``name``."""
        if self._notes_by_name is None:
            self._notes_by_name = defaultdict(list)
            for rec in self.notes:
                self._notes_by_name[rec[0]].append(rec[1])
        return self._notes_by_name.get(name, [])

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self time in seconds, where self
        time is a span's duration minus that of its direct children."""
        child = [0] * len(self.spans)
        for name, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, s, e, _, _) in enumerate(self.spans):
            row = out[name]
            row["count"] += 1
            row["total_s"] += (e - s) * 1e-9
            row["self_s"] += (e - s - child[i]) * 1e-9
        return dict(out)

    def write(self, path, max_ops: int, extra: dict) -> None:
        """Write the self-time summary and the raw spans of the first
        ``max_ops`` ops as one JSON file."""
        keep = [(i,) + s for i, s in enumerate(self.spans)
                if s[4] is not None and s[4] < max_ops]
        doc = dict(extra)
        doc["span_fields"] = ["index", "name", "start_ns", "end_ns", "parent", "op"]
        doc["self_times"] = self.self_times()
        doc["spans_total"] = len(self.spans)
        doc["spans"] = keep
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
