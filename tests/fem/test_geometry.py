"""Geometry: Jacobians and Cartesian gradients of linear tets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import TET04_RULE, GeometryError, tet4_gradients


def _random_tets(n, seed=0, scale=1.0):
    """Random positively-oriented tets (reference tet + perturbation)."""
    rng = np.random.default_rng(seed)
    base = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
    )
    out = np.empty((n, 4, 3))
    for i in range(n):
        while True:
            x = base * scale + 0.15 * scale * rng.standard_normal((4, 3))
            d = np.linalg.det(x[1:] - x[0])
            if d > 1e-3 * scale**3:
                out[i] = x
                break
    return out


def test_reference_tet_gradients():
    xel = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]], dtype=float)
    grads, dets = tet4_gradients(xel)
    from repro.fem.reference import TET04_GRAD

    assert np.allclose(grads[0], TET04_GRAD)
    assert dets[0] == pytest.approx(1.0)


def test_gradients_scale_inversely():
    xel = _random_tets(5, seed=1)
    g1, d1 = tet4_gradients(xel)
    g2, d2 = tet4_gradients(2.0 * xel)
    assert np.allclose(g2, g1 / 2.0)
    assert np.allclose(d2, 8.0 * d1)


def test_gradients_translation_invariant():
    xel = _random_tets(5, seed=2)
    g1, d1 = tet4_gradients(xel)
    g2, d2 = tet4_gradients(xel + np.array([3.0, -1.0, 7.0]))
    assert np.allclose(g1, g2)
    assert np.allclose(d1, d2)


def test_gradients_reproduce_linear_field():
    """sum_a dN_a/dx * f(x_a) == grad f for linear f."""
    xel = _random_tets(8, seed=3)
    grads, _ = tet4_gradients(xel)
    coeff = np.array([1.5, -0.3, 2.2])
    nodal = xel @ coeff  # (n, 4)
    recovered = np.einsum("eaj,ea->ej", grads, nodal)
    assert np.allclose(recovered, np.tile(coeff, (8, 1)), atol=1e-10)


def test_gradient_rows_sum_to_zero():
    grads, _ = tet4_gradients(_random_tets(6, seed=4))
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)


def test_rejects_inverted_element():
    xel = _random_tets(1, seed=5)
    xel = xel[:, [0, 2, 1, 3], :]  # swap -> negative det
    with pytest.raises(GeometryError, match="non-positive"):
        tet4_gradients(xel)


def test_rejects_bad_shape():
    with pytest.raises(GeometryError, match="expected"):
        tet4_gradients(np.zeros((3, 5, 3)))


def test_volumes_match_direct_formula():
    xel = _random_tets(10, seed=7)
    _, dets = tet4_gradients(xel)
    direct = (
        np.einsum(
            "ei,ei->e",
            np.cross(xel[:, 1] - xel[:, 0], xel[:, 2] - xel[:, 0]),
            xel[:, 3] - xel[:, 0],
        )
        / 6.0
    )
    assert np.allclose(dets / 6.0, direct)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 100))
def test_measures_sum_to_volume(scale, seed):
    _, dets = tet4_gradients(_random_tets(3, seed=seed, scale=scale))
    measures = dets[:, None] * TET04_RULE.weights[None, :]  # w_g |J|
    # 4-pt rule: 4 equal weights of 1/24 -> measures sum to the volume
    assert np.allclose(measures.sum(axis=1), dets / 6.0, rtol=1e-10)
    assert np.allclose(measures[:, 0] * 4, dets / 6.0, rtol=1e-10)
