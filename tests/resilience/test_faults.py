"""Fault-plan mechanics: deterministic matching, corruption, pickling."""

import pickle

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience import FaultPlan, FaultSpec, fault_seed_from_env


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate the process-wide registry fault accounting writes into."""
    registry = set_registry(MetricsRegistry())
    yield registry
    set_registry(MetricsRegistry())


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(site="cg", kind="gremlin")


def test_seed_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
    assert fault_seed_from_env(77) == 77
    monkeypatch.setenv("REPRO_FAULT_SEED", "4321")
    assert fault_seed_from_env(77) == 4321


def test_draw_fires_on_indexed_occurrence(_fresh_registry):
    plan = FaultPlan.single("cg", "breakdown", index=2)
    assert plan.draw("cg") is None
    assert plan.draw("cg") is None
    spec = plan.draw("cg")
    assert spec is not None and spec.kind == "breakdown"
    assert plan.draw("cg") is None
    assert len(plan.events) == 1
    assert plan.events[0]["site"] == "cg" and plan.events[0]["index"] == 2
    snap = _fresh_registry.snapshot()
    assert snap["resilience.faults_injected"]["value"] == 1.0


def test_sites_count_independently():
    plan = FaultPlan.single("momentum_rhs", "nan", index=1)
    assert plan.draw("cg") is None  # does not consume momentum_rhs
    assert plan.draw("momentum_rhs") is None
    arr = np.ones(8)
    assert plan.corrupt("momentum_rhs", arr)  # occurrence 1 fires
    assert np.isnan(arr).sum() == 1


def test_corrupt_is_deterministic():
    def corrupted_index(seed):
        plan = FaultPlan.single("assembler", "inf", seed=seed)
        arr = np.zeros((5, 4, 3))
        assert plan.corrupt("assembler", arr)
        return int(np.flatnonzero(~np.isfinite(arr.reshape(-1)))[0])

    assert corrupted_index(1234) == corrupted_index(1234)
    # inf payload, recorded flat index matches the event log
    plan = FaultPlan.single("assembler", "inf", seed=9)
    arr = np.zeros(12)
    plan.corrupt("assembler", arr)
    assert np.isinf(arr).sum() == 1
    assert plan.events[0]["flat_index"] == int(np.flatnonzero(np.isinf(arr))[0])


def test_corrupt_ignores_mismatched_kind_and_empty_arrays():
    plan = FaultPlan.single("cg", "breakdown")
    assert not plan.corrupt("cg", np.ones(4))  # breakdown is not corruption
    plan = FaultPlan.single("assembler", "nan")
    assert not plan.corrupt("assembler", np.empty(0))


def test_plan_roundtrips_through_pickle():
    plan = FaultPlan.single("assembler", "nan", index=1, seed=99)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.seed == 99 and clone.specs == plan.specs
    # the clone corrupts the same occurrence at the same flat index
    for _ in range(2):
        a, b = np.zeros(60), np.zeros(60)
        assert plan.corrupt("assembler", a) == clone.corrupt("assembler", b)
        assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.isnan(a).sum() == 1
