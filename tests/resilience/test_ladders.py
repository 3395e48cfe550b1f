"""The pressure-solver ladder: escalation rungs and their events."""

import numpy as np
import pytest

from repro.fem import box_tet_mesh
from repro.physics.momentum import AssemblyParams
from repro.physics.pressure import PressureSolver
from repro.resilience import FaultPlan, fault_seed_from_env
from repro.solvers.cg import SolverError

SEED = fault_seed_from_env()


@pytest.fixture(scope="module")
def mesh():
    return box_tet_mesh(4, 4, 4)


@pytest.fixture(scope="module")
def params():
    return AssemblyParams(body_force=(0.05, -0.1, 0.2))


@pytest.fixture(scope="module")
def velocity(mesh):
    rng = np.random.default_rng(11)
    return 0.05 * rng.standard_normal((mesh.nnode, 3))


def test_clean_solve_serves_from_rung_zero(mesh, velocity, params, telemetry):
    solver = PressureSolver(mesh)
    result = solver.solve(velocity, params.density, dt=0.01)
    assert result.converged and result.rung == 0


def test_forced_breakdown_rescued_by_deflation(mesh, velocity, params, telemetry):
    tracer, registry = telemetry
    clean = PressureSolver(mesh).solve(velocity, params.density, dt=0.01)

    plan = FaultPlan.single("cg", "breakdown", seed=SEED)
    solver = PressureSolver(mesh, fault_plan=plan)
    rescued = solver.solve(velocity, params.density, dt=0.01)
    assert rescued.converged and rescued.rung == 1
    # the rescue reproduces the clean pressure to solver tolerance
    assert np.abs(rescued.x - clean.x).max() < 1e-6
    assert registry.snapshot()["resilience.solver_escalations"]["value"] == 1.0
    spans = [s for s in tracer.export() if s["name"] == "SolverEscalation"]
    assert len(spans) == 1
    assert spans[0]["attributes"]["from_rung"] == "cg"
    assert spans[0]["attributes"]["to_rung"] == "cg+deflation"
    assert len(plan.events) == 1


def test_exhausted_ladder_raises_structured(mesh, velocity, params, telemetry):
    _, registry = telemetry
    # a hopeless budget: no rung can converge in a single iteration
    solver = PressureSolver(mesh, tol=1e-14, maxiter=1, max_rung=2)
    with pytest.raises(SolverError, match="pressure ladder exhausted") as err:
        solver.solve(velocity, params.density, dt=0.01)
    assert "cg+strong-amg" in str(err.value)
    assert registry.snapshot()["resilience.solver_escalations"]["value"] == 2.0


def test_max_rung_zero_preserves_seed_behaviour(mesh, velocity, params):
    # the seed returned unconverged results silently; max_rung=0 keeps that
    solver = PressureSolver(mesh, tol=1e-14, maxiter=1, max_rung=0)
    result = solver.solve(velocity, params.density, dt=0.01)
    assert not result.converged and result.rung == 0
