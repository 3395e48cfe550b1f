"""Pressure-Poisson solver and the fractional-step integrator."""

import numpy as np
import pytest

from repro.fem import DirichletBC, box_tet_mesh, classify_box_boundaries
from repro.physics import AssemblyParams
from repro.physics.fractional_step import (
    FractionalStepSolver,
    cfl_time_step,
)
from repro.physics.pressure import (
    PressureSolver,
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


def test_step_rejects_bad_dt(mesh):
    with pytest.raises(ValueError, match="dt"):
        _solver(mesh).advance(0.0)


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
