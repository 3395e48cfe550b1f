"""Metric registry: instruments, snapshots, reservoir sampling."""

import pytest

from repro.obs import MetricsRegistry, get_registry, set_registry


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2.5)
    reg.gauge("g").set(7.0)
    for v in (1.0, 2.0, 3.0):
        reg.histogram("h").record(v)

    snap = reg.snapshot()
    assert snap["c"] == {"kind": "counter", "value": 3.5}
    assert snap["g"] == {"kind": "gauge", "value": 7.0}
    h = snap["h"]
    assert h["count"] == 3 and h["sum"] == 6.0
    assert h["min"] == 1.0 and h["max"] == 3.0 and h["mean"] == 2.0
    assert h["samples"] == [1.0, 2.0, 3.0]


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_kind_collision_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_same_instrument_returned():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.names() == ["a"]


def test_default_registry_set_reset():
    original = get_registry()
    fresh = set_registry(MetricsRegistry())
    try:
        assert get_registry() is fresh
        assert get_registry() is not original
    finally:
        set_registry(original)
    assert get_registry() is original


# -- reservoir sampling ------------------------------------------------------


def test_reservoir_bounds_and_exact_summary():
    reg = MetricsRegistry()
    hist = reg.histogram("h")
    hist.max_samples = 64
    for i in range(1000):
        hist.record(float(i))
    assert len(hist.samples) == 64  # bounded
    # scalar summary stays exact regardless of sampling
    assert hist.count == 1000
    assert hist.total == sum(range(1000))
    assert hist.min == 0.0 and hist.max == 999.0
    # the reservoir is uniform over the whole stream, not the first 64:
    # late observations must appear
    assert any(s >= 500.0 for s in hist.samples)


def test_reservoir_deterministic_per_name():
    def fill(name):
        reg = MetricsRegistry()
        h = reg.histogram(name)
        h.max_samples = 16
        for i in range(500):
            h.record(float(i))
        return list(h.samples)

    assert fill("same") == fill("same")  # name-seeded RNG
    assert fill("same") != fill("other")


def test_percentiles_in_snapshot():
    reg = MetricsRegistry()
    hist = reg.histogram("h")
    for i in range(101):
        hist.record(float(i))
    snap = reg.snapshot()["h"]
    assert snap["p50"] == 50.0
    assert snap["p95"] == 95.0
    assert snap["p99"] == 99.0
    # empty histogram reports None quantiles
    empty = MetricsRegistry().histogram("e").snapshot()
    assert empty["p50"] is None and empty["p99"] is None
