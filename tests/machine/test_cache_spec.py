"""Cache simulators and machine specs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    A100_SXM4_40GB,
    ICELAKE_8360Y,
    LruCache,
    SetAssociativeCache,
)


# -- LRU ---------------------------------------------------------------------


def test_lru_hits_within_capacity():
    c = LruCache(4)
    for ln in range(4):
        assert not c.access(ln)
    for ln in range(4):
        assert c.access(ln)
    assert c.stats.hit_rate == pytest.approx(0.5)


def test_lru_evicts_least_recent():
    c = LruCache(2)
    c.access(1)
    c.access(2)
    c.access(1)  # refresh 1
    c.access(3)  # evicts 2
    assert c.contains(1) and c.contains(3) and not c.contains(2)


def test_lru_writeback_on_dirty_eviction():
    evicted = []
    c = LruCache(1, on_evict=lambda ln, d: evicted.append((ln, d)))
    c.access(1, store=True)
    c.access(2)
    assert evicted == [(1, True)]
    assert c.stats.writebacks == 1


def test_lru_invalidate_drops_without_writeback():
    c = LruCache(4)
    c.access(1, store=True)
    assert c.invalidate([1, 99]) == 1
    assert c.stats.invalidated_dirty == 1
    assert c.stats.writebacks == 0
    assert not c.contains(1)


def test_lru_weighted_capacity():
    c = LruCache(16)
    c.access(1, weight=8)
    c.access(2, weight=8)
    assert len(c) == 2 and c.weight == 16
    c.access(3, weight=8)  # evicts 1
    assert not c.contains(1)
    assert c.weight == 16


def test_lru_weight_units_statistics():
    c = LruCache(100)
    c.access(1, weight=8)
    c.access(1, weight=8)
    assert c.stats.miss_units == 8
    assert c.stats.hit_units == 8


def test_lru_flush():
    c = LruCache(8)
    c.access(1, store=True)
    c.access(2)
    assert c.flush() == 1
    assert len(c) == 0


def test_lru_dirty_weight():
    c = LruCache(100)
    c.access(1, store=True, weight=4)
    c.access(2, weight=4)
    assert c.dirty_weight() == 4


def test_lru_rejects_zero_capacity():
    with pytest.raises(ValueError):
        LruCache(0)


@settings(max_examples=20, deadline=None)
@given(
    accesses=st.lists(st.integers(0, 10), min_size=1, max_size=200),
    cap=st.integers(1, 8),
)
def test_lru_inclusion_property(accesses, cap):
    """A bigger LRU cache never misses where a smaller one hits (inclusion)."""
    small = LruCache(cap)
    big = LruCache(cap * 2)
    for a in accesses:
        hit_small = small.access(a)
        hit_big = big.access(a)
        assert not (hit_small and not hit_big)


@settings(max_examples=20, deadline=None)
@given(accesses=st.lists(st.integers(0, 30), min_size=1, max_size=100))
def test_lru_capacity_never_exceeded(accesses):
    c = LruCache(5)
    for a in accesses:
        c.access(a)
        assert c.weight <= 5


# -- set associative ------------------------------------------------------------


def test_set_associative_conflict_misses():
    """Same-set lines thrash a 1-way cache but not a full LRU of equal size."""
    sa = SetAssociativeCache(capacity_lines=4, ways=1)
    fa = LruCache(4)
    pattern = [0, 4, 0, 4, 0, 4]  # map to the same set (4 sets)
    for ln in pattern:
        sa.access(ln)
        fa.access(ln)
    assert sa.stats.hits == 0  # pure conflict misses
    assert fa.stats.hits == 4


def test_associativity_orders_hit_rates_on_a_strided_pattern():
    """Fewer ways, more conflict misses: full LRU >= 4-way >= 1-way."""
    hit_rates = []
    for cache in (
        LruCache(64),
        SetAssociativeCache(64, ways=4),
        SetAssociativeCache(64, ways=1),
    ):
        for _ in range(20):
            for line in range(0, 256, 64):
                cache.access(line)
        hit_rates.append(cache.stats.hit_rate)
    assert hit_rates == sorted(hit_rates, reverse=True)


def test_set_associative_basics():
    c = SetAssociativeCache(capacity_lines=8, ways=2)
    c.access(0, store=True)
    assert c.contains(0)
    assert c.invalidate([0]) == 1
    c.access(1, store=True)
    assert c.flush() == 1
    with pytest.raises(ValueError):
        SetAssociativeCache(1, ways=4)


# -- specs ------------------------------------------------------------------------


def test_a100_machine_intensity():
    """The paper: machine intensity ~7 Flop/B on the A100."""
    assert A100_SXM4_40GB.machine_intensity == pytest.approx(7.02, abs=0.1)


def test_icelake_machine_intensity():
    """The paper: ~15 Flop/B on one Icelake socket."""
    assert ICELAKE_8360Y.machine_intensity == pytest.approx(15.1, abs=0.3)


@pytest.mark.parametrize(
    "regs,expected_warps",
    [(255, 8), (184, 8), (148, 12), (128, 16), (64, 32), (32, 64)],
)
def test_occupancy_vs_registers(regs, expected_warps):
    """Reproduces the paper's occupancy data incl. the +33% step 148->128."""
    assert A100_SXM4_40GB.warps_for_registers(regs) == expected_warps


def test_turbo_bins():
    """Figure 2's frequency kinks: 3.4 GHz to 17 cores, 3.1, then 2.6."""
    f = ICELAKE_8360Y.frequency
    assert f(1) == pytest.approx(3.4e9)
    assert f(17) == pytest.approx(3.4e9)
    assert f(18) == pytest.approx(3.1e9)
    assert f(24) == pytest.approx(3.1e9)
    assert f(25) == pytest.approx(2.6e9)
    assert f(36) == pytest.approx(2.6e9)


def test_cpu_core_shares():
    assert ICELAKE_8360Y.total_cores == 72
    assert ICELAKE_8360Y.core_fp_peak * 36 == pytest.approx(2705e9)
