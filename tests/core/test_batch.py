"""Batched multi-scenario assembly: bitwise identity and isolation.

The acceptance criteria of the scenario-batch axis live here:
:meth:`~repro.core.unified.UnifiedAssembler.run_batch` must be
**bitwise identical** per scenario to ``S`` independent serial solves
across variants, vector_dims, executors and velocity ranks (rows of the
differential harness, ``tests/core/test_differential.py``); a corrupted
scenario's fault must stay in its own row while the other ``S - 1`` stay
bit-identical on the fast path; and the satellite
plumbing (ScenarioBatch validation, per-scenario profiler attribution,
BatchCampaign lockstep) must hold its contracts.
"""

import numpy as np
import pytest

from repro.core import ScenarioBatch, UnifiedAssembler
from repro.obs import TapeProfiler
from repro.obs.metrics import get_registry
from repro.physics import AssemblyParams
from repro.physics.convection import ConvectiveForm
from repro.physics.fractional_step import BatchCampaign, FractionalStepSolver
from repro.physics.pressure import PressureSolver
from repro.resilience.faults import FaultPlan
from tests.core.test_differential import corner

#: same tolerance the serial profiler acceptance uses -- prediction is
#: an all-vector upper bound, folded scalars cost no arena read
BYTE_RESIDUAL_TOLERANCE = 0.15


def forcing_batch(size):
    """Forcing-only batch: the one varying column every variant accepts
    (RS/RSP/RSPR bake density/viscosity/vreman_c into the kernel)."""
    return ScenarioBatch([
        AssemblyParams(body_force=(0.0, 0.0, 0.1 * (s + 1)))
        for s in range(size)
    ])


def material_batch(size):
    """Density/viscosity/forcing all varying -- baseline variants only."""
    return ScenarioBatch([
        AssemblyParams(
            density=1.0 + 0.1 * s,
            viscosity=1e-3 * (s + 1),
            body_force=(0.0, 0.0, 0.01 * (s + 1)),
        )
        for s in range(size)
    ])


def _velocity(mesh, seed):
    rng = np.random.default_rng(seed)
    return 0.1 * rng.standard_normal((mesh.nnode, 3))


def _count(name):
    snap = get_registry().snapshot().get(name)
    return 0.0 if snap is None else float(snap.get("value") or 0.0)


# ---------------------------------------------------------------------------
# Acceptance: run_batch is bitwise identical to S serial solves
# ---------------------------------------------------------------------------


test_run_batch_bitwise_matches_serial = corner("test_run_batch_bitwise_matches_serial")
test_run_batch_interpreted_is_serial_reference = corner(
    "test_run_batch_interpreted_is_serial_reference")


def test_run_batch_velocity_shape_validation(small_mesh):
    batch = forcing_batch(2)
    asm = UnifiedAssembler(
        small_mesh, batch[0], vector_dim=16, mode="compiled"
    )
    with pytest.raises(ValueError, match="velocity must be"):
        asm.run_batch("B", batch, np.zeros((3, small_mesh.nnode, 3)))
    with pytest.raises(ValueError, match="velocity must be"):
        asm.run_batch("B", batch, np.zeros(small_mesh.nnode))


def test_run_batch_specialization_checked_per_scenario(small_mesh):
    """A specialized variant rejects a batch whose *any* scenario strays
    from the baked constants -- checked before anything records."""
    from repro.core import SpecializationError

    batch = material_batch(3)  # varies density/viscosity
    asm = UnifiedAssembler(
        small_mesh, batch[0], vector_dim=16, mode="compiled"
    )
    with pytest.raises(SpecializationError):
        asm.run_batch("RSP", batch, _velocity(small_mesh, 0))


# ---------------------------------------------------------------------------
# Acceptance: fault isolation -- one scenario degrades alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["compiled", "codegen"])
def test_fault_isolation_single_scenario(small_mesh, mode):
    """A NaN-ing scenario comes back as the sweep computed it -- one NaN,
    every other byte its clean row's -- and the other ``S - 1`` rows stay
    bit-identical to a fault-free batch: ``run_batch`` repairs nothing, the
    caller that owns the job recovers the row."""
    size, bad = 4, 2
    batch = forcing_batch(size)
    velocity = _velocity(small_mesh, 3)
    clean = UnifiedAssembler(
        small_mesh, batch[0], vector_dim=32, mode=mode
    ).run_batch("B", batch, velocity)

    before = _count("resilience.batch_isolations")
    asm = UnifiedAssembler(
        small_mesh, batch[0], vector_dim=32, mode=mode,
        fault_plan=FaultPlan.single("assembler", "nan", index=bad),
    )
    rhs = asm.run_batch("B", batch, velocity)

    assert _count("resilience.batch_isolations") == before
    for s in range(size):
        if s != bad:
            assert rhs[s].tobytes() == clean[s].tobytes(), s
    hit = np.isnan(rhs[bad])
    assert hit.sum() == 1
    assert np.array_equal(rhs[bad][~hit], clean[bad][~hit])


# ---------------------------------------------------------------------------
# ScenarioBatch: validation, broadcasting, folding, identity
# ---------------------------------------------------------------------------


def test_scenario_batch_rejects_mixed_flags():
    with pytest.raises(ValueError, match="must be uniform"):
        ScenarioBatch([
            AssemblyParams(),
            AssemblyParams(convective_form=ConvectiveForm.SKEW_SYMMETRIC),
        ])


def test_scenario_batch_rejects_non_params():
    with pytest.raises(TypeError, match="expected AssemblyParams"):
        ScenarioBatch([AssemblyParams(), {"density": 1.0}])
    with pytest.raises(ValueError, match="at least one"):
        ScenarioBatch([])


def test_from_arrays_broadcasting():
    batch = ScenarioBatch.from_arrays(
        viscosity=[1e-3, 2e-3, 3e-3], body_force=(0.0, 0.0, 1.0)
    )
    assert batch.size == 3
    assert batch[1].viscosity == 2e-3
    assert batch[2].body_force == (0.0, 0.0, 1.0)
    assert batch.varying == ("viscosity",)
    assert batch.folded["density"] == 1.0

    per = ScenarioBatch.from_arrays(
        size=2, body_force=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    )
    assert per[1].body_force == (0.0, 0.0, 2.0)
    assert per.varying == ("force_z",)


def test_from_arrays_length_mismatch():
    with pytest.raises(ValueError, match="disagree"):
        ScenarioBatch.from_arrays(size=3, viscosity=[1e-3, 2e-3])
    with pytest.raises(ValueError, match="disagree"):
        ScenarioBatch.from_arrays(size=3, body_force=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="body_force"):
        ScenarioBatch.from_arrays(size=3, body_force=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="pass size="):
        ScenarioBatch.from_arrays()


def test_cache_key_identity():
    a = forcing_batch(3)
    b = forcing_batch(3)
    assert a.cache_key() == b.cache_key()
    # different varying *values* share the tape (values live outside it)
    c = ScenarioBatch([
        AssemblyParams(body_force=(0.0, 0.0, 0.5 * (s + 1)))
        for s in range(3)
    ])
    assert c.cache_key() == a.cache_key()
    # a different size, varying set or folded constant does not
    assert forcing_batch(4).cache_key() != a.cache_key()
    assert material_batch(3).cache_key() != a.cache_key()


# ---------------------------------------------------------------------------
# Satellite: per-scenario profiler attribution stays truthful
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["compiled", "codegen"])
def test_batched_profile_per_scenario_attribution(small_mesh, mode):
    size = 4
    batch = forcing_batch(size)
    velocity = _velocity(small_mesh, 5)
    profiler = TapeProfiler()
    asm = UnifiedAssembler(
        small_mesh, batch[0], vector_dim=32, mode=mode, profiler=profiler
    )
    asm.run_batch("RS", batch, velocity)

    # the batch size extends the serial profile key
    prof = profiler.profiles[("RS", 32, mode, "serial", size)]
    assert prof.scenarios == size
    assert prof.executions == 1
    assert prof.key() == ("RS", 32, mode, "serial", size)

    rows = prof.per_scenario_rows()
    assert rows and all(r["scenarios"] == size for r in rows)
    # per-scenario shares sum back to the whole batch's op traffic
    assert sum(r["bytes"] for r in rows) * size == pytest.approx(
        prof.total_bytes
    )
    assert sum(r["flops"] for r in rows) * size == pytest.approx(
        prof.total_flops
    )


def test_batched_byte_residual(small_mesh):
    """Byte accounting extended to batched profiles: measured traffic
    sits between one serial assembly's (shared work is paid once) and
    ``S`` times the all-vector serial bound (nothing is double-charged),
    and the shared-``vec``-op saving is visible as measured < S x serial
    measured."""
    size = 4
    batch = forcing_batch(size)
    velocity = _velocity(small_mesh, 5)
    profiler = TapeProfiler()
    asm = UnifiedAssembler(
        small_mesh, batch[0], vector_dim=32, mode="compiled",
        profiler=profiler,
    )
    asm.run_batch("RS", batch, velocity)
    prof = profiler.profiles[("RS", 32, "compiled", "serial", size)]

    serial_profiler = TapeProfiler()
    UnifiedAssembler(
        small_mesh, batch[0], vector_dim=32, mode="compiled",
        profiler=serial_profiler,
    ).assemble("RS", velocity)
    serial = serial_profiler.profiles[("RS", 32, "compiled", "serial")]
    nlane = serial.lanes[0] / serial.executions

    assert prof.report is not None and prof.report.scenarios == size
    # full-rank upper bound: every op at S * nlane, all-vector operands
    upper = prof.report.predicted_bytes(size * nlane)
    assert prof.total_bytes <= upper
    # the batch pays the shared rank-1 work once, not S times: strictly
    # cheaper than S serial assemblies, never cheaper than one
    assert serial.total_bytes <= prof.total_bytes < size * serial.total_bytes
    # the serial residual contract still holds for the serial profile
    predicted = serial.report.predicted_bytes(nlane)
    residual = (predicted - serial.total_bytes) / predicted
    assert 0.0 <= residual < BYTE_RESIDUAL_TOLERANCE


# ---------------------------------------------------------------------------
# BatchCampaign: lockstep trajectories, permanent detachment
# ---------------------------------------------------------------------------


def _solo_trajectory(mesh, params, variant, mode, vector_dim, v0, steps, dt,
                     fault_plan=None):
    asm = UnifiedAssembler(mesh, params, mode=mode, vector_dim=vector_dim)
    solver = FractionalStepSolver(
        mesh, params,
        assemble=lambda m, u, p, a=asm, vn=variant: a.assemble(vn, u),
        fault_plan=fault_plan,
    )
    solver.set_velocity(v0)
    for _ in range(steps):
        solver.advance(dt)
    return solver


@pytest.mark.parametrize("variant,mode", [("B", "compiled"), ("RSP", "codegen")])
def test_batch_campaign_bitwise_matches_solo(small_mesh, variant, mode):
    size, steps, dt = 3, 2, 5e-3
    params = [
        AssemblyParams(body_force=(0.0, 0.0, 0.01 * (s + 1)))
        for s in range(size)
    ]
    v0 = 0.05 * np.random.default_rng(7).standard_normal(
        (small_mesh.nnode, 3)
    )
    camp = BatchCampaign(
        small_mesh, ScenarioBatch(params), variant=variant, mode=mode,
        vector_dim=32,
    )
    camp.set_velocities(v0)
    camp.run(steps, dt=dt)
    assert camp.detached == ()
    for s in range(size):
        solo = _solo_trajectory(
            small_mesh, params[s], variant, mode, 32, v0, steps, dt
        )
        assert np.array_equal(solo.velocity, camp.solvers[s].velocity), s
        assert np.array_equal(
            solo.pressure_field, camp.solvers[s].pressure_field
        ), s


def test_batch_campaign_block_pressure_solve(medium_mesh, telemetry):
    """One block pressure solve per lockstep step, every scenario still its
    solo run to the byte: per-scenario densities, one ``cg_solve`` span per
    step (not ``S``), and a scenario whose rung-0 solve is sabotaged climbs
    the ladder alone.  (The cell with a scenario already detached is
    ``test_batch_campaign_detaches_faulted_scenario``'s second step.)"""
    size, steps, dt, bad = 4, 2, 5e-3, 1
    batch = material_batch(size)
    v0 = _velocity(medium_mesh, 7)
    tracer, _ = telemetry

    def campaign(fault_plan=None):
        tracer.clear()
        camp = BatchCampaign(
            medium_mesh, batch, variant="B", mode="compiled", vector_dim=32,
            pressure_solver=PressureSolver(medium_mesh, fault_plan=fault_plan),
        )
        camp.set_velocities(v0)
        camp.run(steps, dt=dt)
        spans = [sp for sp in tracer.finished if sp.name == "cg_solve"]
        return camp, [sp.attributes["columns"] for sp in spans]

    clean, columns = campaign()
    assert columns == [size] * steps
    assert max(r.pressure_iterations for r in clean.solvers[0].history) > 3
    for s in range(size):
        solo = _solo_trajectory(
            medium_mesh, batch[s], "B", "compiled", 32, v0, steps, dt
        )
        assert np.array_equal(solo.velocity, clean.solvers[s].velocity), s
        assert np.array_equal(
            solo.pressure_field, clean.solvers[s].pressure_field
        ), s

    before = _count("resilience.solver_escalations")
    hurt, columns = campaign(FaultPlan.single("cg", "breakdown", index=bad))
    assert _count("resilience.solver_escalations") == before + 1
    assert hurt.detached == ()
    # step 1: the healthy block, then the sabotaged column's own rung 0 and
    # its deflation rung (every CG solve lands in the one installed tracer)
    assert columns == [size - 1, 1, 1, size]
    for s in range(size):
        same = np.array_equal(
            hurt.solvers[s].velocity, clean.solvers[s].velocity
        )
        assert same == (s != bad), s
    assert np.allclose(
        hurt.solvers[bad].velocity, clean.solvers[bad].velocity, atol=1e-8
    )


def test_batch_campaign_detaches_faulted_scenario(small_mesh):
    """The detached row rolls back exactly as its solo run does: the failed
    lockstep attempt is its step's first rollback, so the row goes on at
    ``dt/2`` and matches a solo solver fed the same fault plan to the byte."""
    size, steps, dt, bad = 3, 2, 5e-3, 1
    params = [
        AssemblyParams(body_force=(0.0, 0.0, 0.01 * (s + 1)))
        for s in range(size)
    ]
    v0 = 0.05 * np.random.default_rng(7).standard_normal(
        (small_mesh.nnode, 3)
    )

    def nan_plan():
        return FaultPlan.single("momentum_rhs", "nan", index=0)

    plans = [None] * size
    plans[bad] = nan_plan()
    before = _count("resilience.batch_isolations")
    rollbacks = _count("resilience.rollbacks")
    camp = BatchCampaign(
        small_mesh, ScenarioBatch(params), variant="B", mode="compiled",
        vector_dim=32, fault_plans=plans,
    )
    camp.set_velocities(v0)
    reports = camp.run(steps, dt=dt)
    camp_rollbacks = _count("resilience.rollbacks") - rollbacks

    assert camp.detached == (bad,)
    assert _count("resilience.batch_isolations") == before + 1
    # every scenario committed every step, detached or not
    assert all(r is not None for step in reports for r in step)
    assert np.isfinite(camp.solvers[bad].velocity).all()
    assert camp.solvers[bad].step_count == steps
    # healthy scenarios never left the fast path: bitwise == solo
    for s in range(size):
        if s == bad:
            continue
        solo = _solo_trajectory(
            small_mesh, params[s], "B", "compiled", 32, v0, steps, dt
        )
        assert np.array_equal(solo.velocity, camp.solvers[s].velocity), s
    # the faulted row == a solo solver with an identical fault plan
    rollbacks = _count("resilience.rollbacks")
    solo = _solo_trajectory(
        small_mesh, params[bad], "B", "compiled", 32, v0, steps, dt,
        fault_plan=nan_plan(),
    )
    assert _count("resilience.rollbacks") - rollbacks == camp_rollbacks == 1
    row = camp.solvers[bad]
    assert [r.dt for r in row.history] == [r.dt for r in solo.history] == [dt / 2, dt]
    assert row.velocity.tobytes() == solo.velocity.tobytes()
    assert row.pressure_field.tobytes() == solo.pressure_field.tobytes()
