"""Hierarchical span tracing.

The paper's analysis is measurement-driven: every optimization claim in
Tables I-III is backed by a counter readout.  This module gives the
reproduction the same discipline at runtime -- a :class:`Tracer` records
nested, attributed wall-clock spans (``with tracer.span("assemble",
variant="RSP"):``) that the exporters in :mod:`repro.obs.export` turn into
JSON-lines logs and ``chrome://tracing`` timelines.

Design points:

* **Installed, not passed.**  One tracer serves the process: instrumented
  code reads :func:`get_tracer` where it opens a span, and a caller installs
  a :class:`Tracer` with :func:`set_tracer` -- no call takes one as an
  argument, so every phase of a run lands in the same trace.
* **Zero overhead when off.**  The default is the :data:`NULL_TRACER`
  singleton whose ``span`` returns a shared no-op handle -- no allocation,
  no clock reads, no bookkeeping.  Instrumented code never needs an
  ``if tracer is not None`` guard.
* **Epoch timestamps.**  Span times are wall-clock epoch seconds derived
  from a ``perf_counter`` delta against an epoch anchor taken at tracer
  construction: monotonic within a process, comparable across processes.
* **Plain-dict serialization.**  :meth:`Span.to_dict` /
  :meth:`Span.from_dict` round-trip through JSON
  (:func:`repro.obs.export.read_spans_jsonl`).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
]


@dataclasses.dataclass
class Span:
    """One completed (or in-flight) span.

    ``start``/``end`` are epoch seconds (wall clock, sub-microsecond
    resolution within a process); ``pid``/``tid`` identify the recording
    process ("rank") and thread for the Chrome-trace rows.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = dataclasses.field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    @property
    def duration(self) -> float:
        """Span wall time in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            name=d["name"],
            span_id=int(d["span_id"]),
            parent_id=None if d.get("parent_id") is None else int(d["parent_id"]),
            start=float(d["start"]),
            end=None if d.get("end") is None else float(d["end"]),
            attributes=dict(d.get("attributes", {})),
            pid=int(d.get("pid", 0)),
            tid=int(d.get("tid", 0)),
        )


class _SpanHandle:
    """Context manager *and* decorator returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    # -- context manager ------------------------------------------------
    def __enter__(self) -> Span:
        self._span = self._tracer._start(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._span is not None
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._span)
        self._span = None
        return False

    # -- decorator ------------------------------------------------------
    def __call__(self, func: Callable) -> Callable:
        tracer, name, attributes = self._tracer, self._name, self._attributes

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name, **attributes):
                return func(*args, **kwargs)

        return wrapper


class Tracer:
    """Records nested spans with wall time and attributes.

    Thread-safe for concurrent recording: the open-span stack is kept in
    thread-local storage (so nesting is per-thread) and the finished list
    is guarded by a lock.
    """

    enabled = True

    def __init__(self, pid: Optional[int] = None) -> None:
        # epoch anchor: wall-clock origin + monotonic reference, so span
        # times are comparable across processes yet monotonic within one.
        self._epoch = time.time()
        self._pc0 = time.perf_counter()
        self.pid = int(os.getpid() if pid is None else pid)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._finished: List[Span] = []

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """Current epoch time from the monotonic clock."""
        return self._epoch + (time.perf_counter() - self._pc0)

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a span: ``with tracer.span("assemble", variant="RSP"):``.

        The returned handle is also usable as a decorator:
        ``@tracer.span("solve")``.
        """
        return _SpanHandle(self, name, attributes)

    def _start(self, name: str, attributes: Dict[str, Any]) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            start=self.now(),
            attributes=dict(attributes),
            pid=self.pid,
            tid=threading.get_ident() % 2**31,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit; drop it from wherever it sits
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._finished.append(span)

    @property
    def current(self) -> Optional[Span]:
        """Innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- access -----------------------------------------------------
    @property
    def finished(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def export(self) -> List[Dict[str, Any]]:
        """Finished spans as JSON-ready dicts (sorted by start time)."""
        return [s.to_dict() for s in sorted(self.finished, key=lambda s: s.start)]

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()


class _NullHandle:
    """Shared no-op span handle: context manager and pass-through decorator."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __call__(self, func: Callable) -> Callable:
        return func


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Instrumented code calls ``tracer.span(...)`` unconditionally; with the
    null tracer that returns a shared handle without reading the clock or
    allocating, so telemetry-off runs behave byte-identically to
    uninstrumented code.
    """

    enabled = False
    pid = 0

    def span(self, name: str, **attributes: Any) -> _NullHandle:
        return _NULL_HANDLE

    @property
    def current(self) -> None:
        return None

    @property
    def finished(self) -> List[Span]:
        return []

    def export(self) -> List[Dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass

    def now(self) -> float:
        return time.time()


#: Process-wide disabled tracer (the default everywhere).
NULL_TRACER = NullTracer()

_default_tracer = NULL_TRACER


def get_tracer():
    """The process-wide default tracer (:data:`NULL_TRACER` unless set)."""
    return _default_tracer


def set_tracer(tracer) -> None:
    """Install a process-wide default tracer; pass :data:`NULL_TRACER`
    (or ``None``) to disable."""
    global _default_tracer
    _default_tracer = NULL_TRACER if tracer is None else tracer
