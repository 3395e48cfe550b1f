"""Pressure-Poisson solver and the fractional-step integrator."""

import numpy as np
import pytest

from repro.fem import DirichletBC, box_tet_mesh, classify_box_boundaries
from repro.obs.metrics import get_registry
from repro.physics import AssemblyParams, TurbulenceModel, fractional_step
from repro.physics.fractional_step import (
    BatchCampaign,
    FractionalStepSolver,
    cfl_time_step,
)
from repro.physics.pressure import (
    PROJECTION_DEPTH,
    PressureSolver,
    ProjectionBasis,
    assemble_laplacian,
    divergence_rhs,
)


@pytest.fixture(scope="module")
def mesh():
    return box_tet_mesh(5, 5, 5)


@pytest.fixture(scope="module")
def laplacian(mesh):
    return assemble_laplacian(mesh)


def test_laplacian_symmetric(laplacian):
    assert abs(laplacian - laplacian.T).max() < 1e-13


def test_laplacian_rowsums_zero(laplacian):
    """Constants are in the nullspace (pure Neumann)."""
    ones = np.ones(laplacian.shape[0])
    assert np.abs(laplacian @ ones).max() < 1e-12


def test_laplacian_psd(laplacian):
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(laplacian.shape[0])
        assert v @ (laplacian @ v) >= -1e-10


def test_divergence_rhs_zero_for_uniform_flow(mesh):
    u = np.tile([1.0, -2.0, 0.5], (mesh.nnode, 1))
    rhs = divergence_rhs(mesh, u, density=1.0, dt=0.1)
    assert np.abs(rhs).max() < 1e-12


def test_divergence_rhs_sums_to_boundary_flux(mesh):
    """sum_a rhs_a = -(rho/dt) int div u (the flux, with the K-form sign)."""
    u = np.zeros((mesh.nnode, 3))
    u[:, 0] = mesh.coords[:, 0]  # div u = 1
    rhs = divergence_rhs(mesh, u, density=2.0, dt=0.5)
    assert rhs.sum() == pytest.approx(-2.0 / 0.5 * 1.0, rel=1e-12)


def test_pressure_solver_manufactured(mesh, laplacian):
    """Solve K p = K p_true and recover p_true up to a constant."""
    ps = PressureSolver(mesh, tol=1e-10)
    rng = np.random.default_rng(1)
    p_true = rng.standard_normal(mesh.nnode)
    p_true -= p_true.mean()
    # build a velocity whose divergence RHS equals K p_true is hard;
    # instead test the internal CG through a direct solve call path:
    from repro.solvers import conjugate_gradient

    res = conjugate_gradient(
        laplacian,
        laplacian @ p_true,
        tol=1e-12,
        maxiter=2000,
        preconditioner=ps._amg.as_preconditioner(),
    )
    assert res.converged
    err = res.x - res.x.mean() - p_true
    assert np.abs(err).max() < 1e-7


def test_pressure_solve_reduces_divergence(mesh):
    ps = PressureSolver(mesh, tol=1e-9)
    rng = np.random.default_rng(2)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    res = ps.solve(u, density=1.0, dt=0.05)
    assert res.converged
    assert abs(res.x.mean()) < 1e-10  # zero-mean pressure


def test_amg_vs_jacobi_iterations(mesh):
    """AMG preconditioning must beat Jacobi on iteration count."""
    rng = np.random.default_rng(3)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    amg_iters = PressureSolver(mesh, use_amg=True).solve(u, 1.0, 0.05).iterations
    jac_iters = PressureSolver(mesh, use_amg=False).solve(u, 1.0, 0.05).iterations
    assert amg_iters < jac_iters


def test_solvers_share_one_hierarchy_and_solve_concurrently():
    """Solvers on one mesh share the plan's Laplacian and hierarchy; the
    shared objects hold no per-solve state, so concurrent solves (more
    threads than cores, switching every 10 us) equal the serial ones."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    mesh = box_tet_mesh(6, 6, 6)
    solvers = [PressureSolver(mesh) for _ in range(8)]
    assert all(s._amg is solvers[0]._amg for s in solvers)
    assert all(s.laplacian is solvers[0].laplacian for s in solvers)
    rng = np.random.default_rng(4)
    fields = 0.1 * rng.standard_normal((len(solvers), mesh.nnode, 3))

    def solve(k):
        return solvers[k].solve(fields[k], 1.0, 0.05).x

    serial = [solve(k) for k in range(len(solvers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(solvers)) as pool:
            futures = [pool.submit(solve, k) for k in range(len(solvers))]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, ref in zip(threaded, serial):
        assert np.array_equal(got, ref)


def test_pressure_gradient_of_linear_field(mesh):
    ps = PressureSolver(mesh, use_amg=False)
    p = 2.0 * mesh.coords[:, 0] - mesh.coords[:, 2]
    g = ps.pressure_gradient(p)
    assert np.allclose(g[:, 0], 2.0, atol=1e-10)
    assert np.allclose(g[:, 1], 0.0, atol=1e-10)
    assert np.allclose(g[:, 2], -1.0, atol=1e-10)


# -- fractional step ---------------------------------------------------------------


def test_cfl_time_step_scales(mesh):
    u = np.tile([2.0, 0.0, 0.0], (mesh.nnode, 1))
    dt1 = cfl_time_step(mesh, u, cfl=0.5)
    dt2 = cfl_time_step(mesh, 2.0 * u, cfl=0.5)
    assert dt2 == pytest.approx(dt1 / 2.0)
    assert cfl_time_step(mesh, np.zeros_like(u)) > 0


def _solver(mesh, force=(0.0, 0.0, 0.0)):
    regions = classify_box_boundaries(mesh)
    bcs = [DirichletBC(regions["zmin"].nodes, np.zeros(3))]
    return FractionalStepSolver(
        mesh,
        AssemblyParams(body_force=force),
        dirichlet=bcs,
        pressure_solver=PressureSolver(mesh, tol=1e-7),
    )


def test_step_advances_time(mesh):
    s = _solver(mesh)
    s.advance(0.01)
    s.advance(0.02)
    assert s.time == pytest.approx(0.03)
    assert s.step_count == 2
    assert len(s.history) == 2


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("driver", ["solo", "campaign"])
def test_step_rejects_bad_dt(mesh, driver, dt, telemetry):
    """A dt that is not a positive finite number is refused before any sweep:
    nothing is counted, rolled back or detached, through ``run`` too."""
    run = _solver(mesh) if driver == "solo" else BatchCampaign(
        mesh, [AssemblyParams()] * 2, mode="interpreted")
    for call in (run.advance, lambda dt: run.run(2, dt=dt)):
        with pytest.raises(ValueError, match="dt"):
            call(dt)
    assert not [k for k in get_registry().snapshot() if k.startswith(("fstep.", "resilience."))]
    assert all(sv.step_count == 0 for sv in getattr(run, "solvers", [run]))
    assert getattr(run, "detached", ()) == ()


def test_zero_state_stays_zero_without_forcing(mesh):
    s = _solver(mesh)
    s.run(2, dt=0.01)
    assert np.abs(s.velocity).max() < 1e-12
    assert s.kinetic_energy() == pytest.approx(0.0, abs=1e-15)


def test_force_accelerates_flow(mesh):
    s = _solver(mesh, force=(0.1, 0.0, 0.0))
    reps = s.run(3, dt=0.05)
    ke = [r.kinetic_energy for r in reps]
    assert ke[0] < ke[1] < ke[2]
    assert reps[-1].max_velocity > 0


def test_dirichlet_enforced_every_step(mesh):
    s = _solver(mesh, force=(0.2, 0.0, 0.0))
    s.run(2, dt=0.05)
    regions = classify_box_boundaries(mesh)
    assert np.abs(s.velocity[regions["zmin"].nodes]).max() < 1e-14


def test_unforced_taylor_green_decays(mesh):
    """A divergence-free Taylor-Green vortex must lose energy unforced."""
    s = _solver(mesh)
    x, _, z = mesh.coords.T
    k = 2.0 * np.pi
    u0 = np.zeros((mesh.nnode, 3))
    amp = 0.05
    u0[:, 0] = amp * np.sin(k * x) * np.cos(k * z)
    u0[:, 2] = -amp * np.cos(k * x) * np.sin(k * z)
    s.set_velocity(u0)
    e0 = s.kinetic_energy()
    reps = s.run(3, dt=0.02)
    energies = [r.kinetic_energy for r in reps]
    assert energies[-1] < e0
    assert energies == sorted(energies, reverse=True)


def test_timing_breakdown(mesh):
    s = _solver(mesh, force=(0.1, 0.0, 0.0))
    s.run(2, dt=0.02)
    bd = s.timing_breakdown()
    assert 0.0 < bd["assembly_fraction"] < 1.0
    assert bd["assembly_seconds"] > 0


def test_set_velocity_validates(mesh):
    with pytest.raises(ValueError, match="velocity"):
        _solver(mesh).set_velocity(np.zeros((5, 3)))


# -- Fischer's projection and the step's guards ------------------------------------


def _bases(mesh, ps, rng, sizes):
    """One projection basis per column, each grown from its own solves."""
    bases = []
    for size in sizes:
        basis = ProjectionBasis()
        for _ in range(size):
            p = ps.solve(0.1 * rng.standard_normal((mesh.nnode, 3)), 1.0, 0.05, [basis]).x
            basis.extend(p, ps.laplacian @ p)
        bases.append(basis)
    return bases


def test_block_solve_with_per_column_bases_is_each_columns_solve():
    """Column ``s`` of a stack starts from its own basis's projection and is
    the one-column solve, byte for byte; an empty basis is a zero guess."""
    mesh = box_tet_mesh(6, 6, 6)
    ps, rng = PressureSolver(mesh), np.random.default_rng(11)
    bases = _bases(mesh, ps, rng, [0, 1, 3, PROJECTION_DEPTH])
    assert [b.size for b in bases] == [0, 1, 3, PROJECTION_DEPTH]
    xs = bases[2].x
    assert np.allclose(xs @ ps.laplacian @ xs.T, np.eye(3), atol=1e-10)  # A-orthonormal
    u = 0.1 * rng.standard_normal((4, mesh.nnode, 3))
    density = np.array([1.0, 2.0, 0.5, 1.0])
    block = ps.solve(u, density, 0.05, bases)
    for s, basis in enumerate(bases):
        alone = ps.solve(u[s], density[s], 0.05, [basis])
        assert block[s].x.tobytes() == alone.x.tobytes()
        assert block[s].residual_history == alone.residual_history
    assert ps.solve(u[0], density[0], 0.05).x.tobytes() == block[0].x.tobytes()


def test_projection_moves_trajectories_only_at_solver_tolerance(mesh, monkeypatch):
    """Fischer's projection moves where CG starts, not what it converges to
    (``tol = 1e-8``): ten steps with a basis of 2, 4 and 8 solutions stay
    within 1e-7 of the run without one (``PROJECTION_DEPTH = 0``, a zero
    guess) in velocity, relative to its largest entry, and 1e-8 in energy;
    a deeper basis never needs more iterations at any step."""
    from repro.physics import pressure

    rng = np.random.default_rng(7)
    u0 = 0.1 * rng.standard_normal((mesh.nnode, 3))
    runs = {}
    for depth in (0, 2, 4, 8):
        monkeypatch.setattr(pressure, "PROJECTION_DEPTH", depth)
        s = _solver(mesh, force=(0.05, 0.0, 0.0))
        s.pressure = PressureSolver(mesh)
        s.set_velocity(u0)
        reps = s.run(10, dt=2e-3)
        runs[depth] = (s.velocity, np.array([r.kinetic_energy for r in reps]),
                       [r.pressure_iterations for r in reps])
        assert s.pressure_basis.size <= max(depth, 0)
    v0, e0, iters0 = runs[0]
    for depth in (2, 4, 8):
        v, e, _ = runs[depth]
        assert np.abs(v - v0).max() <= 1e-7 * np.abs(v0).max()
        assert np.abs(e / e0 - 1.0).max() <= 1e-8
    for shallow, deep in ((0, 2), (2, 4), (4, 8)):
        assert all(d <= s for d, s in zip(runs[deep][2], runs[shallow][2])), (shallow, deep)
    assert sum(runs[8][2]) < sum(iters0)


def test_a_rolled_back_step_leaves_the_basis_and_a_ladder_climb_restarts_it(mesh):
    s = _solver(mesh, force=(0.1, 0.0, 0.0))
    s.run(3, dt=0.01)
    assert s.pressure_basis.size == 3
    kept = s.pressure_basis.x.copy()
    s.fault_plan = _OnceNan()
    s.advance(0.01)  # the first attempt trips a guard; the retry commits
    assert s.history[-1].dt == 0.005
    assert s.pressure_basis.size == 4 and np.array_equal(s.pressure_basis.x[:3], kept)
    result = s.pressure.solve(s.velocity, 1.0, 0.01, [s.pressure_basis])
    result.rung = 1
    s._commit_step(0.01, s.velocity, result, s.pressure.image(result.x),
                   (0.0, 0.0, 0.0), 0.0, 0.0)
    assert s.pressure_basis.size == 1


class _OnceNan:
    """A fault plan that poisons the first momentum sweep only."""

    def __init__(self):
        self.done = False

    def corrupt(self, site, rhs):
        if not self.done:
            rhs[:], self.done = np.nan, True


def test_step_guards_read_each_field_once_and_keep_the_parent_bits(mesh):
    """The pre-step max speed is the last report's, post-step speed and
    energy share one ``|u|^2``, the predictor updates in place, the
    max-divergence is the one-pass elemental product: ten steps' reports
    and fields are the out-of-place, one-field-a-guard expressions' bytes."""
    import time

    from repro.solvers.cg import VectorPhase

    class Parent(FractionalStepSolver):
        def _umax(self):
            return float(np.linalg.norm(self.velocity, axis=1).max())

        def advance(self, dt):
            minv, u0 = 1.0 / self.mass[:, None], self.velocity.copy()
            u, t0 = u0, time.perf_counter()
            for c in self._rk_coeffs():
                u = u0 + (c * dt) * (self.assemble(self.mesh, u, self.params) * minv)
                self._apply_bcs(u)
            t_assembly = time.perf_counter() - t0
            (outcome,), t_pressure = fractional_step._finish_steps(
                [self], u[None], dt, [self._umax()])
            return self._commit_step(dt, *outcome, t_assembly, t_pressure)

    regions = classify_box_boundaries(mesh)
    bcs = [DirichletBC(regions["zmin"].nodes, np.zeros(3))]
    params = AssemblyParams(body_force=(0.05, 0.0, 0.02))
    runs = [cls(mesh, params, dirichlet=bcs, assemble="compiled:RSP") for cls in
            (FractionalStepSolver, Parent)]
    u0 = 0.1 * np.random.default_rng(5).standard_normal((mesh.nnode, 3))
    for s in runs:
        s.set_velocity(u0)
    elemental, numpy = runs[0]._plan.p1_derivatives().elemental, VectorPhase()
    for _ in range(10):
        got, want = (s.advance(3e-3) for s in runs)
        assert runs[0].velocity.tobytes() == runs[1].velocity.tobytes()
        assert runs[0].pressure_field.tobytes() == runs[1].pressure_field.tobytes()
        u = runs[0].velocity
        assert (got.max_velocity, got.max_divergence, got.kinetic_energy,
                got.pressure_iterations) == (want.max_velocity, want.max_divergence,
                                             want.kinetic_energy, want.pressure_iterations)
        assert got.max_velocity == float(np.linalg.norm(u, axis=1).max()) == runs[0]._umax()
        assert got.kinetic_energy == float(0.5 * (runs[0].mass * (u**2).sum(axis=1)).sum())
        div = numpy.axes(elemental, np.ascontiguousarray(u.T))
        assert got.max_divergence == float(np.abs(div).max())


def test_both_drivers_converge_to_free_slip_taylor_green():
    """The extruded Taylor-Green vortex on [0, pi]^2 with free slip on all six
    faces is an exact solution, ``u(t) = u(0) exp(-2 nu t)``: at T = 0.4 the
    relative L2(M) error of a solo reference run and of each row of a
    two-scenario codegen campaign falls at order >= 1.8 from 8^2 to 16^2."""
    params = [AssemblyParams(viscosity=nu, turbulence_model=TurbulenceModel.NONE)
              for nu in (0.05, 0.1)]
    errors = []
    for n in (8, 16):
        mesh = box_tet_mesh(n, n, 1, lengths=(np.pi, np.pi, np.pi / n))
        regions = classify_box_boundaries(mesh)
        bcs = [DirichletBC(regions[axis + side].nodes, np.zeros(3), components=(k,))
               for k, axis in enumerate("xyz") for side in ("min", "max")]
        x, y = mesh.coords[:, 0], mesh.coords[:, 1]
        u0 = np.zeros((mesh.nnode, 3))
        u0[:, 0], u0[:, 1] = np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)
        solo = FractionalStepSolver(mesh, params[0], dirichlet=bcs,
                                    pressure_solver=PressureSolver(mesh, tol=1e-10))
        campaign = BatchCampaign(mesh, params, variant="B", mode="codegen", dirichlet=bcs,
                                 pressure_solver=PressureSolver(mesh, tol=1e-10))
        solo.set_velocity(u0)
        campaign.set_velocities(u0)
        solo.run(20, dt=0.02)
        campaign.run(20, dt=0.02)
        mass = solo.mass[:, None]
        row = []
        for u, p in zip([solo.velocity, *campaign.velocities()], [params[0], *params]):
            exact = u0 * np.exp(-2.0 * p.viscosity * 0.4)
            row.append(np.sqrt((mass * (u - exact) ** 2).sum() / (mass * exact**2).sum()))
        errors.append(row)
    orders = np.log2(np.divide(*errors))
    assert (orders >= 1.8).all(), (errors, orders)
