"""Turbulence models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics import (
    TurbulenceModel,
    eddy_viscosity,
    smagorinsky_viscosity,
    vreman_viscosity,
    wale_viscosity,
)

_grad = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=9, max_size=9
).map(lambda v: np.array(v).reshape(3, 3))


# -- Vreman --------------------------------------------------------------------


def test_vreman_zero_for_zero_gradient():
    assert vreman_viscosity(np.zeros((3, 3)), np.array(1.0)) == 0.0


@settings(max_examples=60, deadline=None)
@given(g=_grad, d2=st.floats(1e-6, 10.0))
def test_vreman_nonnegative(g, d2):
    nu = vreman_viscosity(g[None], np.array([d2]))
    assert nu[0] >= 0.0
    assert np.isfinite(nu[0])


def test_vreman_vanishes_for_unidirectional_shear():
    """Vreman's defining property: nu_t = 0 when the gradient is confined
    to a single direction (beta becomes rank-1, so B_beta = 0)."""
    g = np.zeros((3, 3))
    g[0, 1] = 2.0  # du/dy
    g[2, 1] = 1.0  # dw/dy -- still a single gradient direction
    nu = vreman_viscosity(g[None], np.array([1.0]))
    assert nu[0] == pytest.approx(0.0, abs=1e-12)


def test_vreman_positive_for_solid_rotation():
    """Unlike Smagorinsky's |S|, Vreman does not vanish for rotation."""
    w = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)
    nu = vreman_viscosity(w[None], np.array([1.0]))
    assert nu[0] > 0.0


def test_vreman_scales_with_delta2():
    g = np.zeros((3, 3))
    g[0, 1] = 1.0
    g[1, 2] = 0.5
    n1 = vreman_viscosity(g[None], np.array([1.0]))
    n4 = vreman_viscosity(g[None], np.array([4.0]))
    assert n4[0] == pytest.approx(4.0 * n1[0], rel=1e-10)


def test_vreman_gradient_scaling_linear():
    """nu_t(k g) = k nu_t(g): B_beta ~ g^4, aa ~ g^2, sqrt -> linear."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3))
    n1 = vreman_viscosity(g[None], np.array([1.0]))
    n3 = vreman_viscosity((3.0 * g)[None], np.array([1.0]))
    assert n3[0] == pytest.approx(3.0 * n1[0], rel=1e-9)


# -- Smagorinsky / WALE ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(g=_grad)
def test_smagorinsky_nonnegative(g):
    assert smagorinsky_viscosity(g[None], np.array([1.0]))[0] >= 0.0


def test_smagorinsky_pure_shear_value():
    g = np.zeros((3, 3))
    g[0, 1] = 1.0
    # |S| = sqrt(2 * (0.5^2 * 2)) = 1
    nu = smagorinsky_viscosity(g[None], np.array([1.0]), cs=0.17)
    assert nu[0] == pytest.approx(0.17**2, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(g=_grad)
def test_wale_nonnegative_finite(g):
    nu = wale_viscosity(g[None], np.array([1.0]))
    assert nu[0] >= 0.0 and np.isfinite(nu[0])


def test_wale_zero_for_pure_shear():
    """WALE is designed to vanish in pure shear (wall behaviour)."""
    g = np.zeros((3, 3))
    g[0, 1] = 1.0
    assert wale_viscosity(g[None], np.array([1.0]))[0] == pytest.approx(
        0.0, abs=1e-12
    )


# -- dispatch --------------------------------------------------------------------


def test_eddy_viscosity_dispatch():
    g = np.random.default_rng(1).standard_normal((5, 3, 3))
    d2 = np.ones(5)
    assert np.allclose(
        eddy_viscosity(TurbulenceModel.NONE, g, d2), 0.0
    )
    assert np.allclose(
        eddy_viscosity(1, g, d2), vreman_viscosity(g, d2)
    )
    assert np.allclose(
        eddy_viscosity(TurbulenceModel.WALE, g, d2), wale_viscosity(g, d2)
    )

