"""Momentum assembly reference implementation and convective forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UnifiedAssembler
from repro.physics import (
    AssemblyParams,
    ConvectiveForm,
    TurbulenceModel,
    assemble_momentum_rhs,
    convective_term,
    element_rhs,
)
from repro.physics.convection import advective, divergence_form, emac, skew_symmetric
from repro.fem import box_tet_mesh


# -- convective forms ------------------------------------------------------------


def _rand(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(3), rng.standard_normal((3, 3))


def test_forms_agree_for_divergence_free():
    u, g = _rand(0)
    g = g - np.trace(g) / 3.0 * np.eye(3)  # make trace-free
    adv = advective(u, g)
    assert np.allclose(skew_symmetric(u, g), adv)
    assert np.allclose(divergence_form(u, g), adv)


def test_skew_between_advective_and_divergence():
    u, g = _rand(1)
    adv = advective(u, g)
    div = divergence_form(u, g)
    skew = skew_symmetric(u, g)
    assert np.allclose(skew, 0.5 * (adv + div))


def test_emac_for_symmetric_gradient():
    u, g = _rand(2)
    gs = 0.5 * (g + g.T)
    # for symmetric g: 2 S u = 2 g u -> emac = 2 g u + tr(g) u
    expected = 2.0 * gs @ u + np.trace(gs) * u
    assert np.allclose(emac(u, gs), expected)


def test_dispatch_matches_direct():
    u, g = _rand(3)
    for form, fn in [
        (ConvectiveForm.ADVECTIVE, advective),
        (ConvectiveForm.SKEW_SYMMETRIC, skew_symmetric),
        (ConvectiveForm.DIVERGENCE, divergence_form),
        (ConvectiveForm.EMAC, emac),
    ]:
        assert np.allclose(convective_term(form, u, g), fn(u, g))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 500))
def test_advective_is_bilinear_in_u(seed):
    u, g = _rand(seed)
    assert np.allclose(advective(2.0 * u, g), 2.0 * advective(u, g))
    assert np.allclose(advective(u, 3.0 * g), 3.0 * advective(u, g))


# -- element / global assembly -----------------------------------------------------


def test_element_rhs_shape(small_mesh, params):
    xel = small_mesh.element_coords()
    uel = np.zeros((small_mesh.nelem, 4, 3))
    out = element_rhs(xel, uel, params)
    assert out.shape == (small_mesh.nelem, 4, 3)


def test_assembly_linear_in_force(small_mesh):
    u = np.zeros((small_mesh.nnode, 3))
    r1 = assemble_momentum_rhs(
        small_mesh, u, AssemblyParams(body_force=(1.0, 0.0, 0.0))
    )
    r2 = assemble_momentum_rhs(
        small_mesh, u, AssemblyParams(body_force=(2.0, 0.0, 0.0))
    )
    assert np.allclose(r2, 2.0 * r1)


def test_assembly_galilean_force_balance(small_mesh):
    """Total force = rho * f * V (momentum conservation of the force term)."""
    u = np.zeros((small_mesh.nnode, 3))
    p = AssemblyParams(body_force=(0.3, -0.7, 1.1), density=1.0)
    rhs = assemble_momentum_rhs(small_mesh, u, p)
    total = rhs.sum(axis=0)
    vol = small_mesh.total_volume()
    assert np.allclose(total, np.array(p.body_force) * vol, rtol=1e-12)


def test_viscous_term_sign_dissipative(medium_mesh):
    """u . RHS_viscous <= 0: viscosity extracts kinetic energy."""
    p = AssemblyParams(
        body_force=(0, 0, 0),
        viscosity=1e-3,
        turbulence_model=TurbulenceModel.NONE,
    )
    rng = np.random.default_rng(4)
    u = rng.standard_normal((medium_mesh.nnode, 3))
    # linear-velocity fields have zero convection power on average; use
    # a pure shear to isolate viscosity:
    u = np.zeros((medium_mesh.nnode, 3))
    u[:, 0] = medium_mesh.coords[:, 2] ** 2  # du/dz varies
    rhs = assemble_momentum_rhs(medium_mesh, u, p)
    power = float((u * rhs).sum())
    assert power < 0.0


def test_turbulent_viscosity_increases_dissipation(medium_mesh):
    u = np.zeros((medium_mesh.nnode, 3))
    # multi-directional gradients so the Vreman viscosity is active
    u[:, 0] = np.sin(2 * np.pi * medium_mesh.coords[:, 2])
    u[:, 1] = np.sin(2 * np.pi * medium_mesh.coords[:, 0])
    u[:, 2] = np.sin(2 * np.pi * medium_mesh.coords[:, 1])
    base = AssemblyParams(body_force=(0, 0, 0),
                          turbulence_model=TurbulenceModel.NONE)
    vreman = AssemblyParams(body_force=(0, 0, 0),
                            turbulence_model=TurbulenceModel.VREMAN)
    p_base = float((u * assemble_momentum_rhs(medium_mesh, u, base)).sum())
    p_vre = float((u * assemble_momentum_rhs(medium_mesh, u, vreman)).sum())
    assert p_vre < p_base < 0.0


def test_assembly_rejects_bad_velocity(small_mesh, params):
    with pytest.raises(ValueError, match="velocity"):
        assemble_momentum_rhs(small_mesh, np.zeros((2, 3)), params)


def test_constant_velocity_zero_rhs_without_force(small_mesh):
    p = AssemblyParams(body_force=(0.0, 0.0, 0.0))
    u = np.tile([1.0, 2.0, 3.0], (small_mesh.nnode, 1))
    rhs = assemble_momentum_rhs(small_mesh, u, p)
    assert np.abs(rhs).max() < 1e-13


def test_kernel_params_roundtrip():
    p = AssemblyParams(density=2.0, viscosity=3e-4, body_force=(1, 2, 3))
    d = p.as_kernel_params()
    assert d["density"] == 2.0
    assert d["force_y"] == 2
    assert d["turbulence_model"] == int(TurbulenceModel.VREMAN)


# -- discrete conservation --------------------------------------------------------


@pytest.mark.parametrize(
    "how", ["reference", "B:interpreted", "B:codegen", "P:interpreted", "P:codegen"]
)
def test_the_viscous_part_of_the_momentum_rhs_sums_to_zero(how):
    """``sum_a grad N_a = 0`` on every element, so the nodal sum of the part
    of the RHS that the molecular viscosity scales vanishes for any field:
    ``rhs(mu2) - rhs(mu1)``, for the reference and the two variants that
    read ``mu`` at run time (the specialized ones bake it in)."""
    mesh = box_tet_mesh(3, 3, 3)
    u = 0.1 * np.random.default_rng(11).standard_normal((mesh.nnode, 3))
    rhs = []
    for mu in (1e-3, 5e-2):
        params = AssemblyParams(viscosity=mu, body_force=(0.05, -0.1, 0.2))
        if how == "reference":
            rhs.append(assemble_momentum_rhs(mesh, u, params))
        else:
            variant, mode = how.split(":")
            rhs.append(UnifiedAssembler(mesh, params, mode=mode).assemble(variant, u))
    viscous = rhs[1] - rhs[0]
    scale = np.abs(viscous).max()
    assert scale > 1e-3  # the part is there: its entries are O(1e-2) here
    assert np.abs(viscous.sum(axis=0)).max() <= 1e-12 * scale
