"""CG, preconditioners, AMG and deflation."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import box_tet_mesh
from repro.physics.pressure import assemble_laplacian
from repro.solvers import (
    SmoothedAggregationAMG,
    SolverError,
    conjugate_gradient,
    deflated_cg,
    ilu0,
    jacobi,
    partition_coarse_space,
    ssor,
)


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    return sp.csr_matrix(m)


@pytest.fixture(scope="module")
def poisson():
    mesh = box_tet_mesh(5, 5, 5)
    return assemble_laplacian(mesh)


# -- CG ------------------------------------------------------------------------


def test_cg_solves_spd():
    a = _spd(40)
    x_true = np.arange(40, dtype=float)
    res = conjugate_gradient(a, a @ x_true, tol=1e-12, maxiter=400)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-8)


def test_cg_zero_rhs():
    res = conjugate_gradient(_spd(10), np.zeros(10))
    assert res.converged and res.iterations == 0
    assert np.allclose(res.x, 0.0)


def test_cg_initial_guess_exact():
    a = _spd(15, seed=1)
    x = np.ones(15)
    res = conjugate_gradient(a, a @ x, x0=x, tol=1e-10)
    assert res.converged and res.iterations == 0


def test_cg_residual_history_monotone_tail():
    a = _spd(30, seed=2)
    res = conjugate_gradient(a, np.ones(30), tol=1e-12)
    assert res.residual_history[-1] < res.residual_history[0]


def test_cg_maxiter_reports_unconverged():
    mesh = box_tet_mesh(4, 4, 4)
    k = assemble_laplacian(mesh) + 1e-8 * sp.eye(65 if False else mesh.nnode)
    res = conjugate_gradient(k, np.random.default_rng(0).standard_normal(mesh.nnode), maxiter=2)
    assert not res.converged
    with pytest.raises(SolverError, match="did not converge"):
        conjugate_gradient(
            k,
            np.random.default_rng(0).standard_normal(mesh.nnode),
            maxiter=2,
            raise_on_fail=True,
        )


def test_cg_detects_indefinite():
    a = sp.diags([1.0, -1.0, 2.0])
    with pytest.raises(SolverError, match="curvature"):
        conjugate_gradient(a, np.array([1.0, 1.0, 1.0]), raise_on_fail=True)


def test_cg_accepts_callable_operator():
    a = _spd(20, seed=3)
    res = conjugate_gradient(lambda v: a @ v, np.ones(20), tol=1e-10)
    assert res.converged


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 200), n=st.integers(5, 30))
def test_cg_property_random_spd(seed, n):
    a = _spd(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    res = conjugate_gradient(a, a @ x, tol=1e-11, maxiter=10 * n)
    assert res.converged
    assert np.allclose(res.x, x, atol=1e-6)


# -- preconditioners --------------------------------------------------------------


@pytest.mark.parametrize("precond_fn", [jacobi, ssor, ilu0])
def test_preconditioners_accelerate(precond_fn, poisson):
    a = poisson + 1e-6 * sp.eye(poisson.shape[0])  # regularize Neumann
    rng = np.random.default_rng(4)
    b = rng.standard_normal(a.shape[0])
    plain = conjugate_gradient(a, b, tol=1e-8, maxiter=3000)
    pre = conjugate_gradient(
        a, b, tol=1e-8, maxiter=3000, preconditioner=precond_fn(a)
    )
    assert pre.converged
    assert pre.iterations <= plain.iterations


def test_jacobi_rejects_zero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        jacobi(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]])))


def test_ssor_rejects_bad_omega():
    with pytest.raises(ValueError, match="relaxation"):
        ssor(_spd(5), omega=2.5)


def test_ssor_is_symmetric_operator():
    """CG requires a symmetric preconditioner: check M^{-1} symmetry."""
    a = _spd(12, seed=5)
    apply_m = ssor(a)
    m = np.column_stack([apply_m(e) for e in np.eye(12)])
    assert np.allclose(m, m.T, atol=1e-10)


# -- AMG -----------------------------------------------------------------------


def test_amg_hierarchy_shrinks(poisson):
    amg = SmoothedAggregationAMG(poisson)
    sizes = [l.a.shape[0] for l in amg.levels]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]
    assert amg.num_levels >= 2
    assert 1.0 <= amg.operator_complexity() < 3.0


def test_amg_vcycle_reduces_residual(poisson):
    amg = SmoothedAggregationAMG(poisson)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(poisson.shape[0])
    b -= b.mean()  # consistent for Neumann
    x = amg.vcycle(b)
    r0 = np.linalg.norm(b)
    r1 = np.linalg.norm(b - poisson @ x)
    assert r1 < r0


def test_amg_stationary_solve(poisson):
    rng = np.random.default_rng(7)
    p = rng.standard_normal(poisson.shape[0])
    p -= p.mean()
    res = SmoothedAggregationAMG(poisson).solve(
        poisson @ p, tol=1e-8, maxiter=60
    )
    assert res.converged
    err = res.x - res.x.mean() - p
    assert np.abs(err).max() < 1e-5


def test_amg_preconditioned_cg_fast(poisson):
    rng = np.random.default_rng(8)
    p = rng.standard_normal(poisson.shape[0])
    p -= p.mean()
    b = poisson @ p
    amg = SmoothedAggregationAMG(poisson)
    res = conjugate_gradient(
        poisson, b, tol=1e-10, maxiter=100,
        preconditioner=amg.as_preconditioner(),
    )
    plain = conjugate_gradient(poisson, b, tol=1e-10, maxiter=1000)
    assert res.converged
    assert res.iterations < plain.iterations / 2


def test_amg_small_matrix_direct():
    a = _spd(8, seed=9)
    amg = SmoothedAggregationAMG(a, coarse_size=64)
    assert amg.num_levels == 1  # goes straight to the dense solve
    x = amg.vcycle(np.ones(8))
    assert np.allclose(a @ x, np.ones(8), atol=1e-8)


@pytest.fixture(scope="module")
def poisson12():
    """A mesh big enough for three levels; the 5^3 ``poisson`` has two."""
    return assemble_laplacian(box_tet_mesh(12, 12, 12))


@pytest.mark.parametrize("n", [12, 24])
def test_amg_hierarchy_on_real_mesh(poisson12, n):
    """At 24^3 an undecayed threshold stalls level 1 and level 2 fills in to
    2.5x the fine operator; 12^3 is too small to show it."""
    a = poisson12 if n == 12 else assemble_laplacian(box_tet_mesh(n, n, n))
    amg = SmoothedAggregationAMG(a)
    nnz = [l.a.nnz for l in amg.levels]
    assert amg.num_levels >= 3
    assert nnz == sorted(nnz, reverse=True)  # no level fills in past its parent
    assert amg.operator_complexity() <= 2.0
    rng = np.random.default_rng(10)
    b = rng.standard_normal(a.shape[0])
    b -= b.mean()

    def precond(r):  # V-cycle, then project out the Neumann nullspace
        z = amg.vcycle(r)
        return z - z.mean()

    res = conjugate_gradient(a, b, tol=1e-8, maxiter=100, preconditioner=precond)
    assert res.converged and res.iterations <= 25


def test_amg_vcycle_is_symmetric(poisson12):
    """CG needs a symmetric preconditioner: ``x . M^-1 y == y . M^-1 x``."""
    amg = SmoothedAggregationAMG(poisson12)
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((2, poisson12.shape[0]))
    x -= x.mean()
    y -= y.mean()
    xy, yx = x @ amg.vcycle(y), y @ amg.vcycle(x)
    assert abs(xy - yx) <= 1e-10 * max(abs(xy), abs(yx))


def _textbook_cycle(amg, k, b):
    """The V-cycle as written in the books: zero guess, explicit residuals,
    restriction by ``P.T``."""
    level = amg.levels[k]
    if level.prolongator is None:
        return amg._coarse_pinv @ b
    x = np.zeros_like(b)
    for _ in range(amg.presmooth):
        x = x + amg.omega * level.diag_inv * (b - level.a @ x)
    coarse = _textbook_cycle(amg, k + 1, level.prolongator.T @ (b - level.a @ x))
    x = x + level.prolongator @ coarse
    for _ in range(amg.postsmooth):
        x = x + amg.omega * level.diag_inv * (b - level.a @ x)
    return x


@pytest.mark.parametrize("sweeps", [(1, 1), (3, 3), (0, 2)])
def test_amg_vcycle_equals_textbook_cycle(poisson12, sweeps):
    amg = SmoothedAggregationAMG(
        poisson12, presmooth=sweeps[0], postsmooth=sweeps[1]
    )
    rng = np.random.default_rng(12)
    b = rng.standard_normal(poisson12.shape[0])
    b -= b.mean()
    ref = _textbook_cycle(amg, 0, b)
    assert np.allclose(
        amg.vcycle(b), ref, rtol=0.0, atol=1e-13 * np.abs(ref).max()
    )


# -- deflation --------------------------------------------------------------------


def test_partition_coarse_space_shape():
    w = partition_coarse_space(np.array([0, 0, 1, 1, 2]))
    assert w.shape == (5, 3)
    assert np.allclose(np.asarray(w.sum(axis=1)).ravel(), 1.0)


def test_deflated_cg_matches_plain(poisson):
    mesh_n = poisson.shape[0]
    rng = np.random.default_rng(10)
    p = rng.standard_normal(mesh_n)
    p -= p.mean()
    b = poisson @ p
    labels = (np.arange(mesh_n) * 4) // mesh_n
    res = deflated_cg(poisson, b, partition_coarse_space(labels), tol=1e-10)
    assert res.converged
    err = res.x - res.x.mean() - p
    assert np.abs(err).max() < 1e-6


def test_deflation_removes_coarse_modes(poisson):
    """Residual orthogonal to the coarse space throughout the solve."""
    n = poisson.shape[0]
    labels = (np.arange(n) * 8) // n
    w = partition_coarse_space(labels)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(n)
    b -= b.mean()
    res = deflated_cg(poisson, b, w, tol=1e-9)
    r = b - poisson @ res.x
    assert np.abs(w.T @ r).max() < 1e-6
