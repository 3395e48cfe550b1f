"""Degradation ladders: pressure-solver escalation and assembler rungs."""

import numpy as np
import pytest

from repro.fem import box_tet_mesh
from repro.physics.momentum import AssemblyParams, assemble_momentum_rhs
from repro.physics.pressure import PressureSolver
from repro.resilience import (
    AssemblyDegraded,
    FaultPlan,
    ResilientAssembler,
    fault_seed_from_env,
)
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


# -- pressure ladder ----------------------------------------------------------


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


# -- assembler ladder ---------------------------------------------------------


def test_ladder_validates_and_stays_on_codegen(mesh, velocity, params, telemetry):
    _, registry = telemetry
    asm = ResilientAssembler(mesh, params)
    rhs = asm(mesh, velocity, params)
    assert asm.mode == "codegen"
    ref = assemble_momentum_rhs(mesh, velocity, params)
    assert np.allclose(rhs, ref, rtol=1e-8, atol=1e-12)
    snap = registry.snapshot()
    assert snap["resilience.validations"]["value"] == 1.0
    # second sweep: validated rung is trusted, no second reference assembly
    asm(mesh, velocity, params)
    assert registry.snapshot()["resilience.validations"]["value"] == 1.0


def test_corrupted_kernel_degrades_to_compiled(mesh, velocity, params, telemetry):
    tracer, registry = telemetry
    plan = FaultPlan.single("assembler", "nan", seed=SEED)
    asm = ResilientAssembler(mesh, params, fault_plan=plan)
    rhs = asm(mesh, velocity, params)
    assert asm.mode == "compiled"
    ref = assemble_momentum_rhs(mesh, velocity, params)
    assert np.allclose(rhs, ref, rtol=1e-8, atol=1e-12)
    snap = registry.snapshot()
    assert snap["resilience.assembler_degradations"]["value"] == 1.0
    spans = [s for s in tracer.export() if s["name"] == "AssemblerDegradation"]
    assert len(spans) == 1
    assert spans[0]["attributes"]["from_mode"] == "codegen"
    assert spans[0]["attributes"]["to_mode"] == "compiled"


def test_all_fast_rungs_corrupt_lands_on_reference(mesh, velocity, params, telemetry):
    _, registry = telemetry
    plan = FaultPlan(
        [
            FaultPlan.single("assembler", "nan", index=0).specs[0],
            FaultPlan.single("assembler", "inf", index=1).specs[0],
            FaultPlan.single("assembler", "nan", index=2).specs[0],
        ],
        seed=SEED,
    )
    asm = ResilientAssembler(mesh, params, fault_plan=plan)
    rhs = asm(mesh, velocity, params)
    assert asm.mode == "reference"
    assert np.array_equal(rhs, assemble_momentum_rhs(mesh, velocity, params))
    snap = registry.snapshot()
    assert snap["resilience.assembler_degradations"]["value"] == 3.0


def test_ladder_binding_and_rung_validation(mesh, velocity, params):
    asm = ResilientAssembler(mesh, params)
    other = box_tet_mesh(2, 2, 2)
    with pytest.raises(ValueError, match="bound to the mesh"):
        asm(other, velocity, params)
    with pytest.raises(ValueError, match="bound to its construction params"):
        asm(mesh, velocity, AssemblyParams(viscosity=123.0))
    with pytest.raises(ValueError, match="must end on 'reference'"):
        ResilientAssembler(mesh, params, modes=("compiled",))
    with pytest.raises(ValueError, match="unknown assembler rung"):
        ResilientAssembler(mesh, params, modes=("quantum", "reference"))


def test_assembly_degraded_is_exported():
    assert issubclass(AssemblyDegraded, RuntimeError)
