"""Span tracer: nesting, timing, attributes, decorator, null behaviour."""

import time

import pytest

from repro.obs import NULL_TRACER, NullTracer, Span, Tracer, get_tracer, set_tracer


def test_span_nesting_parent_child():
    tracer = Tracer(pid=7)
    with tracer.span("outer", variant="RSP") as outer:
        with tracer.span("inner") as inner:
            assert tracer.current is inner
            assert inner.parent_id == outer.span_id
        with tracer.span("inner2") as inner2:
            assert inner2.parent_id == outer.span_id
    assert tracer.current is None

    spans = {s.name: s for s in tracer.finished}
    assert set(spans) == {"outer", "inner", "inner2"}
    assert spans["outer"].parent_id is None
    assert spans["outer"].attributes == {"variant": "RSP"}
    assert all(s.pid == 7 for s in spans.values())


def test_span_timing_monotonic_and_contained():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    spans = {s.name: s for s in tracer.finished}
    inner, outer = spans["inner"], spans["outer"]
    assert inner.duration >= 0.01
    assert outer.duration >= inner.duration
    assert outer.start <= inner.start
    assert outer.end >= inner.end


def test_span_decorator():
    tracer = Tracer()

    @tracer.span("work", kind="unit")
    def work(x):
        return x + 1

    assert work(1) == 2
    assert work(2) == 3
    spans = tracer.finished
    assert len(spans) == 2
    assert all(s.name == "work" and s.attributes == {"kind": "unit"} for s in spans)


def test_span_records_exception_and_propagates():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("fails"):
            raise ValueError("boom")
    (span,) = tracer.finished
    assert span.attributes["error"] == "ValueError"
    assert span.end is not None


def test_span_dict_round_trip():
    tracer = Tracer(pid=3)
    with tracer.span("a", n=4):
        pass
    d = tracer.export()[0]
    span = Span.from_dict(d)
    assert span.to_dict() == d


def test_null_tracer_is_noop():
    null = NullTracer()
    with null.span("anything", x=1) as span:
        assert span is None
    assert null.finished == []
    assert null.export() == []
    assert null.current is None
    assert not null.enabled
    # the handle is shared: no allocation per call
    assert null.span("a") is null.span("b")


def test_null_tracer_decorator_returns_function_unchanged():
    def f(x):
        return x * 2

    assert NULL_TRACER.span("f")(f) is f


def test_default_tracer_get_set():
    assert get_tracer() is NULL_TRACER
    t = Tracer()
    set_tracer(t)
    try:
        assert get_tracer() is t
    finally:
        set_tracer(None)
    assert get_tracer() is NULL_TRACER
