"""Variant equality (the paper's premise) and trace shapes (its findings)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SpecializationError,
    Storage,
    UnifiedAssembler,
    VARIANTS,
    get_variant,
    make_specialized_kernel,
    variant_names,
)
from repro.fem import box_tet_mesh, get_plan
from repro.physics import (
    AssemblyParams,
    ConvectiveForm,
    TurbulenceModel,
    assemble_momentum_rhs,
)

ALL = ("B", "P", "RS", "RSP", "RSPR")


# -- registry ----------------------------------------------------------------


def test_registry_contents():
    assert set(VARIANTS) == set(ALL)
    assert variant_names("cpu") == ("B", "RS", "RSP")
    assert variant_names("gpu") == ALL


def test_rspr_is_gpu_only():
    v = get_variant("RSPR")
    assert v.supports("gpu") and not v.supports("cpu")
    assert v.immediate_scatter and v.privatized and v.specialized


def test_get_variant_case_insensitive():
    assert get_variant("rsp").name == "RSP"
    with pytest.raises(KeyError, match="unknown variant"):
        get_variant("XYZ")


# -- numerical equality -------------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_variant_matches_reference(name, medium_mesh, params, velocity):
    asm = UnifiedAssembler(medium_mesh, params, vector_dim=32)
    ref = assemble_momentum_rhs(medium_mesh, velocity, params)
    rhs = asm.assemble(name, velocity)
    scale = np.abs(ref).max()
    assert np.abs(rhs - ref).max() < 1e-12 * scale


@pytest.mark.parametrize("vdim", [1, 7, 16, 200, 5000])
def test_equality_independent_of_vector_dim(vdim, small_mesh, params):
    rng = np.random.default_rng(5)
    u = 0.2 * rng.standard_normal((small_mesh.nnode, 3))
    ref = assemble_momentum_rhs(small_mesh, u, params)
    asm = UnifiedAssembler(small_mesh, params, vector_dim=vdim)
    rhs = asm.assemble("RSP", u)
    assert np.allclose(rhs, ref, rtol=1e-12, atol=1e-14)


def test_equality_on_jittered_mesh(jittered_mesh, params):
    rng = np.random.default_rng(6)
    u = 0.1 * rng.standard_normal((jittered_mesh.nnode, 3))
    ref = assemble_momentum_rhs(jittered_mesh, u, params)
    asm = UnifiedAssembler(jittered_mesh, params, vector_dim=16)
    for name in ALL:
        assert np.allclose(asm.assemble(name, u), ref, rtol=1e-11, atol=1e-13)


def test_zero_velocity_gives_pure_force(small_mesh, params):
    """With u = 0 the RHS is the body-force integral: rho*f*V/4 per node/elem."""
    asm = UnifiedAssembler(small_mesh, params, vector_dim=16)
    rhs = asm.assemble("RSPR", np.zeros((small_mesh.nnode, 3)))
    mass = get_plan(small_mesh).lumped_mass()
    expected = (
        params.density
        * mass[:, None]
        * np.asarray(params.body_force)[None, :]
    )
    assert np.allclose(rhs, expected, rtol=1e-12)


def test_rigid_translation_has_no_viscous_term(small_mesh):
    """Uniform velocity: no gradients -> RHS is force only (conv = 0)."""
    p = AssemblyParams(body_force=(0.0, 0.0, 0.0))
    asm = UnifiedAssembler(small_mesh, p, vector_dim=16)
    u = np.tile([0.3, -0.2, 0.1], (small_mesh.nnode, 1))
    rhs = asm.assemble("RS", u)
    assert np.abs(rhs).max() < 1e-13


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_all_variants_agree(seed):
    mesh = box_tet_mesh(2, 2, 2)
    params = AssemblyParams(body_force=(0.1, 0.0, -0.1))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((mesh.nnode, 3))
    asm = UnifiedAssembler(mesh, params, vector_dim=16)
    base = asm.assemble("B", u)
    for name in ("P", "RS", "RSP", "RSPR"):
        assert np.allclose(asm.assemble(name, u), base, rtol=1e-11, atol=1e-13)


# -- specialization boundary ---------------------------------------------------


def test_specialized_rejects_wrong_density(medium_mesh):
    asm = UnifiedAssembler(medium_mesh, AssemblyParams(density=2.0))
    with pytest.raises(SpecializationError, match="density"):
        asm.assemble("RS", np.zeros((medium_mesh.nnode, 3)))


def test_specialized_rejects_wrong_model(medium_mesh):
    asm = UnifiedAssembler(
        medium_mesh,
        AssemblyParams(turbulence_model=TurbulenceModel.SMAGORINSKY),
    )
    with pytest.raises(SpecializationError, match="Vreman"):
        asm.assemble("RSP", np.zeros((medium_mesh.nnode, 3)))


def test_specialized_rejects_wrong_form(medium_mesh):
    asm = UnifiedAssembler(
        medium_mesh,
        AssemblyParams(convective_form=ConvectiveForm.SKEW_SYMMETRIC),
    )
    with pytest.raises(SpecializationError, match="advective"):
        asm.assemble("RSPR", np.zeros((medium_mesh.nnode, 3)))


def test_baseline_accepts_nonstandard_params(medium_mesh):
    asm = UnifiedAssembler(medium_mesh, AssemblyParams(density=2.0))
    rhs = asm.assemble("B", np.zeros((medium_mesh.nnode, 3)))
    assert np.isfinite(rhs).all()


def test_rebuilt_specialized_kernel_handles_new_constants(small_mesh):
    """Specialization means: build a new kernel for new constants."""
    from repro.core.dsl import KernelContext, NumpyBackend

    params = AssemblyParams(density=3.0, viscosity=0.01)
    kernel = make_specialized_kernel(
        Storage.PRIVATE, density=3.0, viscosity=0.01
    )
    rng = np.random.default_rng(2)
    u = 0.1 * rng.standard_normal((small_mesh.nnode, 3))
    ref = assemble_momentum_rhs(small_mesh, u, params)
    rhs = np.zeros((small_mesh.nnode, 3))
    ctx = KernelContext(
        connectivity=small_mesh.connectivity,
        coords=small_mesh.coords,
        fields={"velocity": u},
        rhs=rhs,
        params=params.as_kernel_params(),
    )
    kernel(NumpyBackend(ctx), ctx)
    assert np.allclose(rhs, ref, rtol=1e-12)


def test_immediate_scatter_requires_private():
    with pytest.raises(ValueError, match="immediate scatter"):
        make_specialized_kernel(Storage.GLOBAL_TEMP, immediate_scatter=True)


# -- trace shapes: the paper's measured effects --------------------------------


def test_baseline_temp_inventory(traces):
    """B: ~430 temp values in ~18-32 arrays (paper: 430 in 32)."""
    rep = traces["B"]
    slots = rep.temp_slots(Storage.GLOBAL_TEMP)
    assert 400 <= slots <= 500
    assert rep.temp_arrays(Storage.GLOBAL_TEMP) >= 15


def test_rs_reduces_temps(traces):
    """RS: far fewer temporaries (paper: 130 values in 13 arrays)."""
    b = traces["B"].temp_slots(Storage.GLOBAL_TEMP)
    rs = traces["RS"].temp_slots(Storage.GLOBAL_TEMP)
    assert rs < b / 4


def test_rs_reduces_flops_3_to_8x(traces):
    ratio = traces["B"].flops / traces["RS"].flops
    assert 3.0 <= ratio <= 10.0  # paper: ~3.6-3.8x


def test_privatization_changes_storage_not_flops(traces):
    assert traces["P"].flops == traces["B"].flops
    assert traces["P"].loadstore(Storage.GLOBAL_TEMP) == 0
    assert traces["P"].loadstore(Storage.PRIVATE) == traces["B"].loadstore(
        Storage.GLOBAL_TEMP
    )


def test_rsp_equals_rs_except_storage(traces):
    assert traces["RSP"].flops == traces["RS"].flops
    assert traces["RSP"].loadstore(Storage.PRIVATE) == traces[
        "RS"
    ].loadstore(Storage.GLOBAL_TEMP)


def test_rspr_more_mesh_loads_fewer_private(traces):
    """The paper's RSPR: more global loads, fewer live values than RSP."""
    assert traces["RSPR"].loads[Storage.MESH] > traces["RSP"].loads[Storage.MESH]
    assert traces["RSPR"].loadstore(Storage.PRIVATE) < traces[
        "RSP"
    ].loadstore(Storage.PRIVATE)


def test_baseline_has_branches_specialized_none(traces):
    assert traces["B"].branches > 0
    assert traces["RS"].branches == 0
    assert traces["RSPR"].branches == 0


def test_specialized_arrays_are_static(traces):
    assert all(t.static for t in traces["RSP"].temps.values())
    assert not any(t.static for t in traces["B"].temps.values())
