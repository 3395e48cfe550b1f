"""Chaos tests for the supervised multiprocess runner.

Each scenario injects a worker fault (crash / hard exit / hang / slow
rank) and proves the run completes with per-chunk RHS checksums *bitwise
identical* to a fault-free run -- recovery must never change the answer.
"""

import pytest

from repro.fem import box_tet_mesh
from repro.obs.metrics import get_registry
from repro.parallel import MultiprocessRunner, WorkerPolicy
from repro.physics import AssemblyParams
from repro.resilience import FaultPlan, fault_seed_from_env

SEED = fault_seed_from_env()

#: short deadline: the 3x3x3 chunks assemble in milliseconds, and hang /
#: hard-exit detection waits out one full deadline before re-dispatching.
POLICY = WorkerPolicy(task_timeout=5.0, max_retries=2, backoff_base=0.01)


@pytest.fixture(scope="module")
def mesh():
    return box_tet_mesh(3, 3, 3)


@pytest.fixture(scope="module")
def params():
    return AssemblyParams(body_force=(0.05, -0.1, 0.2))


def _clean_run(mesh, params, assembly_mode="reference"):
    runner = MultiprocessRunner(
        mesh, params, repeats=1, policy=POLICY, assembly_mode=assembly_mode
    )
    runner.measure([2])
    return runner.chunk_checksums[2]


@pytest.fixture(scope="module")
def clean_checksums(mesh, params):
    return _clean_run(mesh, params)


def _chaos_run(mesh, params, plan, policy=POLICY, assembly_mode="reference"):
    runner = MultiprocessRunner(
        mesh, params, repeats=1, policy=policy, fault_plan=plan, assembly_mode=assembly_mode
    )
    points = runner.measure([2])
    counters = {
        name: data["value"]
        for name, data in get_registry().snapshot().items()
        if name.startswith("resilience.")
    }
    return points, runner.chunk_checksums[2], counters


def test_worker_crash_is_retried_bitwise(mesh, params, clean_checksums, telemetry):
    plan = FaultPlan.single("worker", "crash", rank=1, index=0, seed=SEED)
    tracer, _ = telemetry
    points, checksums, counters = _chaos_run(mesh, params, plan)
    assert len(points) == 1 and points[0].workers == 2
    assert checksums == clean_checksums  # tuple equality is bitwise
    assert counters["resilience.worker_failures"] == 1.0
    assert counters["resilience.retries"] == 1.0
    assert counters["resilience.respawns"] == 1.0
    assert "resilience.fallbacks" not in counters
    failures = [s for s in tracer.export() if s["name"] == "WorkerFailure"]
    assert len(failures) == 1
    attrs = failures[0]["attributes"]
    assert attrs["rank"] == 1 and attrs["action"] == "retry"
    # the parent logged the injected fault even though the worker died
    assert any(e.get("side") == "parent" for e in plan.events)


def test_worker_hard_exit_detected_by_deadline(mesh, params, clean_checksums, telemetry):
    plan = FaultPlan.single("worker", "exit", rank=0, index=0, seed=SEED)
    _, checksums, counters = _chaos_run(mesh, params, plan)
    assert checksums == clean_checksums
    assert counters["resilience.worker_failures"] == 1.0
    assert counters["resilience.retries"] == 1.0


def test_worker_hang_detected_by_deadline(mesh, params, clean_checksums, telemetry):
    plan = FaultPlan.single("worker", "hang", rank=1, index=0, seed=SEED)
    _, checksums, counters = _chaos_run(mesh, params, plan)
    assert checksums == clean_checksums
    assert counters["resilience.worker_failures"] == 1.0
    assert counters["resilience.retries"] == 1.0
    assert counters["resilience.respawns"] == 1.0


def test_slow_rank_completes_without_recovery(mesh, params, clean_checksums, telemetry):
    plan = FaultPlan.single(
        "worker", "slow", rank=0, index=0, delay=0.2, seed=SEED
    )
    points, checksums, counters = _chaos_run(mesh, params, plan)
    assert checksums == clean_checksums
    # a slow rank is inside the deadline: no failure, no retry
    assert "resilience.worker_failures" not in counters
    assert points[0].wall_seconds >= 0.2


@pytest.mark.parametrize("mode", ["reference", "codegen"])
def test_retry_budget_exhausted_falls_back_to_serial(
    mesh, params, clean_checksums, mode, telemetry
):
    """The fallback runs the shipped program (codegen) or the reference
    kernel in-process; either way the chunk's checksum is the fault-free
    run's of the same mode."""
    clean = clean_checksums if mode == "reference" else _clean_run(
        mesh, params, mode
    )
    # crash every attempt of rank 1 -- retries can never succeed
    specs = [
        FaultPlan.single("worker", "crash", rank=1, index=i).specs[0]
        for i in range(4)
    ]
    plan = FaultPlan(specs, seed=SEED)
    policy = WorkerPolicy(task_timeout=5.0, max_retries=1, backoff_base=0.01)
    tracer, _ = telemetry
    _, checksums, counters = _chaos_run(mesh, params, plan, policy=policy, assembly_mode=mode)
    # the in-process serial fallback reproduces the chunk bitwise
    assert checksums == clean
    assert counters["resilience.fallbacks"] == 1.0
    assert counters["resilience.retries"] == 1.0
    assert counters["resilience.worker_failures"] == 2.0
    actions = [
        s["attributes"]["action"]
        for s in tracer.export()
        if s["name"] == "WorkerFailure"
    ]
    assert actions == ["retry", "serial_fallback"]
