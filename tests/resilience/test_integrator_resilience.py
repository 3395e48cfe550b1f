"""Integrator chaos: rollback on NaN, checkpoint/restart, CFL guards."""

import os

import numpy as np
import pytest

from repro.fem import box_tet_mesh
from repro.fem.mesh import TetMesh
from repro.physics.fractional_step import (
    FractionalStepSolver,
    IntegrationError,
    cfl_time_step,
    resolve_assembler,
)
from repro.physics.momentum import AssemblyParams
from repro.resilience import (
    CheckpointError,
    FaultPlan,
    fault_seed_from_env,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

SEED = fault_seed_from_env()


@pytest.fixture(scope="module")
def mesh():
    return box_tet_mesh(4, 4, 4)


@pytest.fixture(scope="module")
def params():
    return AssemblyParams()


@pytest.fixture(scope="module")
def u0(mesh):
    rng = np.random.default_rng(7)
    return 0.05 * rng.standard_normal((mesh.nnode, 3))


# -- rollback ----------------------------------------------------------------


def test_nan_sweep_rolls_back_and_halves_dt(mesh, params, u0, telemetry):
    tracer, registry = telemetry
    plan = FaultPlan.single("momentum_rhs", "nan", seed=SEED, index=3)
    solver = FractionalStepSolver(mesh, params, fault_plan=plan)
    solver.set_velocity(u0)
    dt = cfl_time_step(mesh, solver.velocity, 0.4)
    reports = [solver.advance(dt) for _ in range(3)]
    # the corrupted sweep hit step 2 (sweeps 0-2 are step 1): that step
    # rolled back once and completed at dt/2; the others at full dt.
    assert [r.dt for r in reports] == [dt, dt / 2.0, dt]
    snap = registry.snapshot()
    assert snap["resilience.rollbacks"]["value"] == 1.0
    rollbacks = [s for s in tracer.export() if s["name"] == "Rollback"]
    assert len(rollbacks) == 1
    assert rollbacks[0]["attributes"]["stage"] == "momentum"
    assert np.isfinite(solver.velocity).all()
    assert len(plan.events) == 1


def test_rollback_budget_exhaustion_raises_structured(mesh, params, u0):
    # corrupt every retry's first sweep: occurrence indices 0, 3, 6, ...
    plan = FaultPlan(
        [
            FaultPlan.single("momentum_rhs", "nan", index=3 * i).specs[0]
            for i in range(8)
        ],
        seed=SEED,
    )
    solver = FractionalStepSolver(
        mesh, params, fault_plan=plan, max_dt_halvings=2
    )
    solver.set_velocity(u0)
    dt = cfl_time_step(mesh, solver.velocity, 0.4)
    with pytest.raises(IntegrationError) as err:
        solver.advance(dt)
    assert err.value.stage == "momentum"
    assert err.value.step == 1
    assert err.value.context()["reason"] == "non-finite predictor velocity"
    # failed step committed nothing: state is the pre-step state
    assert solver.step_count == 0 and solver.time == 0.0
    ref = FractionalStepSolver(mesh, params)
    ref.set_velocity(u0)
    assert np.array_equal(solver.velocity, ref.velocity)


def test_blowup_guard_rejects_finite_explosions(mesh, params, u0):
    solver = FractionalStepSolver(mesh, params, blowup_factor=1e-12,
                                  max_dt_halvings=1)
    solver.set_velocity(u0)
    dt = cfl_time_step(mesh, solver.velocity, 0.4)
    with pytest.raises(IntegrationError) as err:
        solver.advance(dt)
    assert "blow-up" in err.value.reason


# -- checkpoint / restart -----------------------------------------------------


def test_periodic_checkpoint_and_bitwise_restart(mesh, params, u0, tmp_path, telemetry):
    _, registry = telemetry
    a = FractionalStepSolver(
        mesh, params, checkpoint_every=2, checkpoint_dir=str(tmp_path)
    )
    a.set_velocity(u0)
    dt = cfl_time_step(mesh, a.velocity, 0.4)
    for _ in range(4):
        a.advance(dt)
    assert registry.snapshot()["resilience.checkpoints"]["value"] == 2.0
    ckpt = os.path.join(str(tmp_path), "checkpoint_000002.npz")
    assert latest_checkpoint(str(tmp_path)).endswith("checkpoint_000004.npz")

    b = FractionalStepSolver(mesh, params).restart(ckpt)
    assert b.step_count == 2
    for _ in range(2):
        b.advance(dt)
    # the restarted trajectory is bitwise identical to the uninterrupted one
    assert np.array_equal(a.velocity, b.velocity)
    assert np.array_equal(a.pressure_field, b.pressure_field)
    assert b.time == a.time


def test_checkpoint_rejects_wrong_mesh(mesh, params, u0, tmp_path):
    a = FractionalStepSolver(mesh, params)
    a.set_velocity(u0)
    path = str(tmp_path / "ck.npz")
    a.checkpoint(path)
    other = box_tet_mesh(2, 2, 2)
    with pytest.raises(CheckpointError, match="is for a mesh"):
        FractionalStepSolver(other, params).restart(path)


def test_checkpoint_rejects_corrupt_payloads(tmp_path):
    path = str(tmp_path / "bad.npz")
    with pytest.raises(CheckpointError, match="non-finite"):
        save_checkpoint(
            path,
            velocity=np.full((4, 3), np.nan),
            pressure=np.zeros(4),
            time=0.0,
            step=0,
            nnode=4,
            nelem=1,
        )
    np.savez(path, format="something-else")
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(path)


def test_checkpoint_without_dir_requires_path(mesh, params):
    solver = FractionalStepSolver(mesh, params)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        solver.checkpoint()


# -- CFL guards ---------------------------------------------------------------


def test_cfl_rejects_empty_mesh():
    empty = TetMesh(
        coords=np.eye(4, 3),
        connectivity=np.zeros((0, 4), dtype=np.int64),
        validate=False,
    )
    with pytest.raises(ValueError, match="no elements"):
        cfl_time_step(empty, np.zeros((4, 3)))


def test_cfl_rejects_zero_volume_element():
    degenerate = TetMesh(
        coords=np.zeros((4, 3)),
        connectivity=np.array([[0, 1, 2, 3]], dtype=np.int64),
        validate=False,
    )
    with pytest.raises(ValueError, match="zero-volume"):
        cfl_time_step(degenerate, np.zeros((4, 3)))


def test_cfl_still_positive_on_healthy_mesh(mesh):
    assert cfl_time_step(mesh, np.zeros((mesh.nnode, 3))) > 0


# -- assembler spec -----------------------------------------------------------


def test_resolve_assembler_resilient_spec(mesh, params):
    """The spec set has no self-repairing assembler: a step's guards own a
    non-finite sweep, and an unknown spec names the accepted ones."""
    for spec in ("resilient", "resilient:RS", "quantum"):
        with pytest.raises(ValueError, match="unknown assembler spec") as err:
            resolve_assembler(spec, mesh, params)
        assert "'codegen[:VARIANT]'" in str(err.value)
        assert "resilient[" not in str(err.value)
