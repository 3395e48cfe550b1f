"""Exporters: span logs, Chrome traces, flamegraphs, Prometheus text.

Machine-readable trace and metric formats, all dependency-free:

* **JSON lines** (``*.jsonl``): one span dict per line, the lossless
  archival format -- :func:`read_spans_jsonl` round-trips exactly.
* **Chrome trace events** (``*.json``): complete-event (``"ph": "X"``)
  records openable in ``chrome://tracing`` / Perfetto; one process row per
  recorded ``pid``, microsecond timestamps.
* **Folded flamegraph** (``*.txt``): Brendan Gregg collapsed-stack lines
  (``frame;frame;leaf weight``) of the spans' self times
  (:func:`collapse_spans`), importable by speedscope and
  ``flamegraph.pl``.
* **Prometheus text exposition**: counters/gauges/summaries from a
  :class:`MetricsRegistry` (:func:`prometheus_text`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Union

from .metrics import MetricsRegistry
from .spans import Span

__all__ = [
    "write_spans_jsonl",
    "read_spans_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "collapse_spans",
    "write_flamegraph",
    "prometheus_text",
]

_SpanLike = Union[Span, Dict[str, Any]]


def _as_dicts(spans: Iterable[_SpanLike]) -> List[Dict[str, Any]]:
    return [s.to_dict() if isinstance(s, Span) else dict(s) for s in spans]


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def write_spans_jsonl(spans: Iterable[_SpanLike], path: str) -> int:
    """Write one span dict per line; returns the number written."""
    dicts = _as_dicts(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(json.dumps(d, sort_keys=True) + "\n")
    return len(dicts)


def read_spans_jsonl(path: str) -> List[Span]:
    """Read spans back from a JSON-lines file."""
    out: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Span.from_dict(json.loads(line)))
    return out


# ---------------------------------------------------------------------------
# Chrome trace events
# ---------------------------------------------------------------------------


def chrome_trace_events(spans: Iterable[_SpanLike]) -> List[Dict[str, Any]]:
    """Convert spans to Chrome complete events (``ph: "X"``, ts/dur in us).

    Timestamps are re-based so the earliest span starts at ts=0, which
    keeps the timeline readable regardless of the epoch anchor.
    """
    dicts = [d for d in _as_dicts(spans) if d.get("end") is not None]
    if not dicts:
        return []
    t0 = min(float(d["start"]) for d in dicts)
    events = []
    for d in sorted(dicts, key=lambda d: (d["start"], -float(d["end"]))):
        events.append(
            {
                "name": d["name"],
                "ph": "X",
                "ts": (float(d["start"]) - t0) * 1e6,
                "dur": (float(d["end"]) - float(d["start"])) * 1e6,
                "pid": int(d.get("pid", 0)),
                "tid": int(d.get("tid", 0)),
                "args": dict(d.get("attributes", {})),
            }
        )
    return events


def write_chrome_trace(
    spans: Iterable[_SpanLike],
    path: str,
    metadata: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a ``chrome://tracing`` JSON object file; returns event count."""
    events = chrome_trace_events(spans)
    doc: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        doc["otherData"] = dict(metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(events)


# ---------------------------------------------------------------------------
# Folded flamegraph (collapsed stacks)
# ---------------------------------------------------------------------------


def collapse_spans(spans: Iterable[_SpanLike]) -> Dict[str, int]:
    """Collapse completed spans into folded-stack lines.

    Each span contributes its *self time* (duration minus completed
    children) at the stack ``rank<pid>;ancestors...;name``, in integer
    microseconds.  The result is the textual flamegraph format
    (``stack;frames weight``) speedscope and ``flamegraph.pl`` import.
    """
    dicts = [d for d in _as_dicts(spans) if d.get("end") is not None]
    by_id = {int(d["span_id"]): d for d in dicts}
    child_time: Dict[int, float] = {}
    for d in dicts:
        parent = d.get("parent_id")
        if parent is not None and int(parent) in by_id:
            dur = float(d["end"]) - float(d["start"])
            child_time[int(parent)] = child_time.get(int(parent), 0.0) + dur

    def stack_of(d: Dict[str, Any]) -> str:
        frames = [d["name"]]
        seen = {int(d["span_id"])}
        parent = d.get("parent_id")
        while parent is not None and int(parent) in by_id and int(parent) not in seen:
            p = by_id[int(parent)]
            frames.append(p["name"])
            seen.add(int(parent))
            parent = p.get("parent_id")
        frames.append(f"rank{int(d.get('pid', 0))}")
        return ";".join(reversed(frames))

    out: Dict[str, int] = {}
    for d in dicts:
        total = float(d["end"]) - float(d["start"])
        self_time = total - child_time.get(int(d["span_id"]), 0.0)
        usec = int(round(max(self_time, 0.0) * 1e6))
        if usec <= 0:
            continue
        stack = stack_of(d)
        out[stack] = out.get(stack, 0) + usec
    return out


def write_flamegraph(collapsed: Dict[str, int], path: str) -> int:
    """Write folded-stack lines (sorted for determinism); returns count."""
    with open(path, "w", encoding="utf-8") as fh:
        for stack in sorted(collapsed):
            weight = int(collapsed[stack])
            if weight > 0:
                fh.write(f"{stack} {weight}\n")
    return sum(1 for w in collapsed.values() if int(w) > 0)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _prom_name(name: str) -> str:
    """Dotted registry name -> Prometheus metric name (``repro_`` prefix)."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def prometheus_text(
    metrics: Union[MetricsRegistry, Dict[str, Dict[str, Any]]],
) -> str:
    """Render a registry snapshot in the Prometheus text-exposition format.

    Counters map to ``counter``, gauges to ``gauge``, histograms to a
    summary-style triplet (``_count``/``_sum`` plus ``{quantile=...}``
    sample lines from the reservoir percentiles).
    """
    snap = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    lines: List[str] = []
    for name in sorted(snap):
        data = snap[name]
        kind = data.get("kind")
        pname = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {float(data.get('value') or 0.0):g}")
        elif kind == "gauge":
            value = data.get("value")
            if value is None:
                continue
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {float(value):g}")
        elif kind == "histogram":
            lines.append(f"# TYPE {pname} summary")
            for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                v = data.get(key)
                if v is not None:
                    lines.append(f'{pname}{{quantile="{q}"}} {float(v):g}')
            lines.append(f"{pname}_count {int(data.get('count', 0))}")
            lines.append(f"{pname}_sum {float(data.get('sum', 0.0)):g}")
        else:
            raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
    return "\n".join(lines) + ("\n" if lines else "")
