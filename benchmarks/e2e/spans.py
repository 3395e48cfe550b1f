"""Spans recorded by the benchmark around its calls into each layer.

A span is ``(name, layer, start, end, parent, unit)``.  Spans stay in
memory until the run ends; :meth:`Tracer.write_chrome` dumps them as a
Chrome trace and :meth:`Tracer.self_seconds` folds them into per-layer
self time (a span's duration minus what its children cover).  The
disabled tracer hands out one shared no-op context, so an untraced run
executes the same workload code without recording anything.
"""

import contextlib
import json
import time

#: spans of the harness itself; their self time is what no layer claimed
BENCH_LAYER = "bench"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "unit", "child_seconds")

    def __init__(self, name, layer, start, parent, unit):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.child_seconds = 0.0

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self, workload, enabled=True):
        self.workload = workload
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.unit = None  # id of the unit of work being traced

    @contextlib.contextmanager
    def _record(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent, self.unit)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_seconds += span.seconds

    def span(self, name, layer):
        """Time the enclosed call as a child of the innermost open span."""
        return self._record(name, layer) if self.enabled else _NULL_CONTEXT

    def add(self, parent, name, layer, seconds):
        """Attach to ``parent`` a duration the program measured itself (a
        profiler phase, ``StepReport.pressure_seconds``, the server's
        service time).  It has no start of its own, so it is laid out
        after its earlier siblings."""
        start = parent.start + parent.child_seconds
        span = Span(name, layer, start, parent, parent.unit)
        span.end = start + seconds
        parent.child_seconds += seconds
        self.spans.append(span)

    def self_seconds(self, root_name):
        """Per-layer self time over every top-level span called
        ``root_name`` and everything below it."""
        out = {}
        for span in self.spans:
            top = span
            while top.parent is not None:
                top = top.parent
            if top.name == root_name:
                own = span.seconds - span.child_seconds
                out[span.layer] = out.get(span.layer, 0.0) + own
        return out

    def durations(self, name):
        return [s.seconds for s in self.spans if s.name == name]

    def write_chrome(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "args": {
                    "id": index[id(s)],
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "workload": self.workload,
                    "unit": s.unit,
                },
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


_NULL_CONTEXT = contextlib.nullcontext()
