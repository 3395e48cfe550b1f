"""Telemetry substrate: spans, metrics, op-level profiler, exporters.

Dependency-free observability for the reproduction's hot paths.  There
is one tracer and one registry per process: every instrumented site reads
them through :func:`get_tracer` / :func:`get_registry`, and no call takes
either as an argument.  The default tracer is the no-op
:data:`NULL_TRACER`, so instrumentation costs nothing until a caller
installs one::

    from repro.obs import Tracer, get_registry, get_tracer, set_tracer, write_chrome_trace

    set_tracer(Tracer())
    OptimizationStudy().gpu_table()
    write_chrome_trace(get_tracer().finished, "trace.json")
    print(get_registry().snapshot())

The profiler is the op-level layer (the reproduction's LIKWID):
``UnifiedAssembler(..., profile=True)`` owns a :class:`TapeProfiler`,
whose one :class:`TapeProfile` per ``(variant, vector_dim, mode,
executor, S)`` holds per-phase wall time, derived bytes and Flops.
"""

from .spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .profiler import (
    TapeProfile,
    TapeProfiler,
    op_costs_from_program,
)
from .export import (
    chrome_trace_events,
    collapse_spans,
    prometheus_text,
    read_spans_jsonl,
    write_chrome_trace,
    write_flamegraph,
    write_spans_jsonl,
)

__all__ = [
    "NULL_TRACER", "NullTracer", "Span", "Tracer", "get_tracer", "set_tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry",
    "TapeProfile", "TapeProfiler", "op_costs_from_program",
    "chrome_trace_events", "collapse_spans", "write_flamegraph", "prometheus_text",
    "read_spans_jsonl", "write_chrome_trace", "write_spans_jsonl",
]
