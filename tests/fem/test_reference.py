"""Reference-element properties: partition of unity, nodal interpolation,
gradient consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.reference import TET04, TET04_GRAD

ALL = pytest.mark.parametrize("ref", [TET04], ids=["TET04"])


def _interior_points(n=5, seed=0):
    """Random points safely inside the reference tetrahedron."""
    b = np.random.default_rng(seed).dirichlet(np.ones(4), size=n)
    return b[:, 1:] * 0.9


@ALL
def test_partition_of_unity(ref):
    vals, _ = ref.evaluate(_interior_points())
    assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-12)


@ALL
def test_gradient_sum_zero(ref):
    """d/dx of the partition of unity: gradients sum to zero."""
    _, grads = ref.evaluate(_interior_points())
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-12)


@ALL
def test_nodal_interpolation(ref):
    """N_a(x_b) = delta_ab."""
    vals, _ = ref.evaluate(ref.node_coords)
    assert np.allclose(vals, np.eye(ref.nnode), atol=1e-12)


@ALL
def test_gradients_match_finite_differences(ref):
    pts = _interior_points(n=3, seed=1)
    _, grads = ref.evaluate(pts)
    eps = 1e-6
    for d in range(3):
        plus = pts.copy()
        plus[:, d] += eps
        minus = pts.copy()
        minus[:, d] -= eps
        vp, _ = ref.evaluate(plus)
        vm, _ = ref.evaluate(minus)
        fd = (vp - vm) / (2 * eps)
        assert np.allclose(grads[:, d, :], fd, atol=1e-6)


@ALL
def test_linear_completeness(ref):
    """Shape functions reproduce linear fields exactly at interior points."""
    pts = _interior_points(n=4, seed=2)
    coeff = np.array([0.3, -1.2, 0.7])
    nodal = ref.node_coords @ coeff + 2.0
    vals, _ = ref.evaluate(pts)
    interp = nodal @ vals
    exact = pts @ coeff + 2.0
    assert np.allclose(interp, exact, atol=1e-10)


def test_tet04_constant_gradient_matrix():
    _, grads = TET04.evaluate(np.array([[0.1, 0.2, 0.3], [0.3, 0.1, 0.2]]))
    assert np.allclose(grads[:, :, 0], TET04_GRAD)
    assert np.allclose(grads[:, :, 1], TET04_GRAD)
    assert TET04.linear_gradient


def test_evaluate_rejects_wrong_dim():
    with pytest.raises(ValueError, match="dim"):
        TET04.evaluate(np.zeros((3, 2)))


@settings(max_examples=25, deadline=None)
@given(
    s=st.floats(0.01, 0.3),
    t=st.floats(0.01, 0.3),
    u=st.floats(0.01, 0.3),
)
def test_tet_shapes_nonnegative_inside(s, t, u):
    vals, _ = TET04.evaluate(np.array([[s, t, u]]))
    assert (vals >= 0).all()
    assert vals.sum() == pytest.approx(1.0)
