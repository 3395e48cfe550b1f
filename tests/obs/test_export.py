"""Exporters: JSONL round-trip, Chrome trace validity, flamegraph, Prometheus."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    read_spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)


@pytest.fixture()
def traced():
    tracer = Tracer(pid=1)
    with tracer.span("outer", variant="RSP"):
        with tracer.span("inner"):
            pass
    with tracer.span("second"):
        pass
    return tracer


def test_jsonl_round_trip(traced, tmp_path):
    path = tmp_path / "spans.jsonl"
    n = write_spans_jsonl(traced.finished, str(path))
    assert n == 3
    back = sorted(read_spans_jsonl(str(path)), key=lambda s: s.start)
    original = sorted(traced.finished, key=lambda s: s.start)
    assert [s.to_dict() for s in back] == [s.to_dict() for s in original]


def test_chrome_trace_events_structure(traced):
    events = chrome_trace_events(traced.finished)
    assert len(events) == 3
    assert all(e["ph"] == "X" for e in events)
    assert min(e["ts"] for e in events) == 0.0
    by_name = {e["name"]: e for e in events}
    outer, inner = by_name["outer"], by_name["inner"]
    # nesting: inner fully contained in outer on the same pid/tid row
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    assert inner["pid"] == outer["pid"] == 1
    assert outer["args"] == {"variant": "RSP"}


def test_chrome_trace_file_round_trip(traced, tmp_path):
    path = tmp_path / "trace.json"
    n = write_chrome_trace(traced.finished, str(path), metadata={"run": "test"})
    assert n == 3
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"] == {"run": "test"}
    assert len(doc["traceEvents"]) == 3
    assert all(ev["dur"] >= 0 for ev in doc["traceEvents"])


def test_chrome_trace_skips_open_spans(tmp_path):
    tracer = Tracer()
    handle = tracer.span("open")
    handle.__enter__()  # never exited
    assert chrome_trace_events(tracer.finished) == []


# -- collapsed stacks / flamegraph ------------------------------------------


def test_collapse_spans_self_time(traced):
    from repro.obs import collapse_spans

    collapsed = collapse_spans(traced.finished)
    # parent self-time excludes the completed child's duration
    outer = next(k for k in collapsed if k.endswith(";outer"))
    inner = next(k for k in collapsed if "outer;inner" in k)
    assert outer.startswith("rank1;")
    assert collapsed[outer] >= 0 and collapsed[inner] >= 0
    total = sum(collapsed.values())
    wall = sum(
        s.end - s.start for s in traced.finished if s.parent_id is None
    )
    assert total <= wall * 1e6 + 2  # self-times never exceed wall (usec)


def test_write_flamegraph_sorted_lines(tmp_path):
    from repro.obs import write_flamegraph

    path = tmp_path / "flame.txt"
    n = write_flamegraph({"a;b": 5, "a;c": 0, "a": 7}, str(path))
    lines = path.read_text().splitlines()
    assert n == len(lines) == 2  # zero-weight stack dropped
    assert lines == sorted(lines)


# -- prometheus text exposition ---------------------------------------------


def test_prometheus_text_instruments():
    from repro.obs import prometheus_text

    reg = MetricsRegistry()
    reg.counter("runner.tasks").inc(3)
    reg.gauge("study.wall_ms.RSP").set(12.5)
    for v in (1.0, 2.0, 3.0, 4.0):
        reg.histogram("cg.iters").record(v)
    text = prometheus_text(reg)
    assert "# TYPE repro_runner_tasks counter" in text
    assert "repro_runner_tasks 3" in text
    assert "# TYPE repro_study_wall_ms_RSP gauge" in text
    assert "repro_study_wall_ms_RSP 12.5" in text
    assert "# TYPE repro_cg_iters summary" in text
    assert 'repro_cg_iters{quantile="0.5"}' in text
    assert "repro_cg_iters_count 4" in text
    assert "repro_cg_iters_sum 10" in text
