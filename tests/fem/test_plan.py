"""AssemblyPlan: precomputed scatter, cached geometry, bit-identity.

The plan layer replaces every hot-loop ``np.add.at`` with a precomputed
``np.bincount`` reduction; both accumulate weights sequentially in input
order, so the results must be *bitwise* equal (``np.array_equal``, not
``allclose``) -- these tests pin that contract for the raw scatter
primitives, the DSL assembler, and every physics consumer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UnifiedAssembler
from repro.fem import (
    AssemblyPlan,
    ElementPacking,
    ScatterPlan,
    box_tet_mesh,
    get_plan,
    segment_scatter,
)
from repro.fem.geometry import tet4_gradients
from repro.physics import assemble_momentum_rhs
from repro.physics.fractional_step import FractionalStepSolver
from repro.physics.momentum import element_rhs
from repro.physics.pressure import PressureSolver, divergence_rhs
from tests.core.test_differential import corner


# -- raw scatter primitives -------------------------------------------------------


@st.composite
def scatter_case(draw):
    nbins = draw(st.integers(min_value=1, max_value=40))
    nvals = draw(st.integers(min_value=0, max_value=200))
    idx = draw(
        st.lists(
            st.integers(min_value=0, max_value=nbins - 1),
            min_size=nvals,
            max_size=nvals,
        )
    )
    vals = draw(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, width=64
            ),
            min_size=nvals,
            max_size=nvals,
        )
    )
    return nbins, np.asarray(idx, dtype=np.int64), np.asarray(vals)


@settings(max_examples=60, deadline=None)
@given(scatter_case())
def test_segment_scatter_bitwise_equals_add_at_1d(case):
    nbins, idx, vals = case
    ref = np.zeros(nbins)
    np.add.at(ref, idx, vals)
    got = segment_scatter(idx, vals, nbins)
    assert np.array_equal(ref, got)


@settings(max_examples=40, deadline=None)
@given(scatter_case(), st.integers(min_value=2, max_value=4))
def test_segment_scatter_bitwise_equals_add_at_2d(case, ncomp):
    nbins, idx, vals = case
    vals = np.stack([vals * (k + 1) for k in range(ncomp)], axis=-1)
    ref = np.zeros((nbins, ncomp))
    np.add.at(ref, idx, vals)
    got = segment_scatter(idx, vals, nbins)
    assert np.array_equal(ref, got)


@settings(max_examples=40, deadline=None)
@given(scatter_case())
def test_scatter_plan_bincount_bitwise(case):
    nbins, idx, vals = case
    plan = ScatterPlan(idx, nbins)
    ref = np.zeros(nbins)
    np.add.at(ref, idx, vals)
    assert np.array_equal(plan.scatter(vals), ref)


def test_duplicate_heavy_scatter_bitwise():
    # all values into one bin: worst case for any re-association
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(4096) * 10.0 ** rng.integers(-8, 8, 4096)
    ref = np.zeros(1)
    np.add.at(ref, np.zeros(4096, dtype=np.int64), vals)
    got = segment_scatter(np.zeros(4096, dtype=np.int64), vals, 1)
    assert np.array_equal(ref, got)


# -- plan caching -----------------------------------------------------------------


def test_get_plan_is_cached(medium_mesh):
    assert get_plan(medium_mesh) is get_plan(medium_mesh)


def test_plan_geometry_matches_mesh(medium_mesh):
    plan = get_plan(medium_mesh)
    grads, dets = tet4_gradients(medium_mesh.element_coords())
    geo = plan.geometry()
    assert np.array_equal(geo.gradients, grads)
    assert np.array_equal(geo.dets, dets)
    assert np.array_equal(geo.volumes, dets / 6.0)
    assert geo is plan.geometry()  # cached


def test_plan_element_volumes_are_mesh_volumes(medium_mesh):
    # cross-product volumes (mesh path), NOT det/6 -- the two differ in
    # the last ulp and downstream consumers depend on the mesh flavour.
    plan = get_plan(medium_mesh)
    assert np.array_equal(plan.element_volumes(), medium_mesh.element_volumes())


def test_plan_arrays_are_readonly(medium_mesh):
    plan = get_plan(medium_mesh)
    for arr in (
        plan.geometry().gradients,
        plan.geometry().volumes,
        plan.element_volumes(),
        plan.lumped_mass(),
        plan.packed_coords(),
    ):
        assert not arr.flags.writeable


def test_plan_packing_cached_per_signature(medium_mesh):
    plan = get_plan(medium_mesh)
    assert plan.packing(16) is plan.packing(16)
    assert plan.packing(16) is not plan.packing(32)


def test_plan_lumped_mass_bitwise(medium_mesh):
    vols = medium_mesh.element_volumes()
    ref = np.zeros(medium_mesh.nnode)
    np.add.at(ref, medium_mesh.connectivity.ravel(), np.repeat(vols / 4.0, 4))
    assert np.array_equal(get_plan(medium_mesh).lumped_mass(), ref)


# -- packing memoization ----------------------------------------------------------


def test_packing_full_groups_share_active_mask(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=16)
    g0, g1 = p.group(0), p.group(1)
    assert g0.active is g1.active
    assert not g0.active.flags.writeable


def test_packing_final_padded_group_memoized(small_mesh):
    p = ElementPacking(small_mesh, vector_dim=100)  # 162 elems -> padded
    last = p.ngroups - 1
    assert p.group(last) is p.group(last)
    # uncached packing still rebuilds full groups
    assert p.group(0) is not p.group(0)


def test_packing_cache_memoizes_every_group(small_mesh):
    p = ElementPacking(small_mesh, vector_dim=16, cache=True)
    for i in range(p.ngroups):
        assert p.group(i) is p.group(i)


def test_cached_packing_groups_match_uncached(small_mesh):
    a = ElementPacking(small_mesh, vector_dim=32, cache=True)
    b = ElementPacking(small_mesh, vector_dim=32)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.element_ids, gb.element_ids)
        assert np.array_equal(ga.connectivity, gb.connectivity)
        assert np.array_equal(ga.coords, gb.coords)
        assert np.array_equal(ga.active, gb.active)


# -- end-to-end bit-identity ------------------------------------------------------


test_unified_plan_path_bitwise_equals_legacy = corner(
    "test_unified_plan_path_bitwise_equals_legacy")
test_unified_plan_path_bitwise_with_padding = corner("test_unified_plan_path_bitwise_with_padding")


def test_momentum_assembly_bitwise_equals_seed_path(medium_mesh, params):
    rng = np.random.default_rng(12)
    u = 0.1 * rng.standard_normal((medium_mesh.nnode, 3))
    elem = element_rhs(
        medium_mesh.element_coords(), u[medium_mesh.connectivity], params
    )
    ref = np.zeros((medium_mesh.nnode, 3))
    np.add.at(ref, medium_mesh.connectivity.ravel(), elem.reshape(-1, 3))
    assert np.array_equal(assemble_momentum_rhs(medium_mesh, u, params), ref)


def _close_to_reference(got, ref):
    """Equal up to summation order: absolute 1e-13 of the reference's
    max-norm.  The sparse P1 operators fold each node's element
    contributions in CSR order, ``np.add.at`` in connectivity order, so
    these cannot be bitwise."""
    return np.allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def test_divergence_rhs_bitwise_equals_seed_path(medium_mesh):
    rng = np.random.default_rng(13)
    u = rng.standard_normal((medium_mesh.nnode, 3))
    grads, dets = tet4_gradients(medium_mesh.element_coords())
    vols = dets / 6.0
    div = np.einsum("eai,eai->e", grads, u[medium_mesh.connectivity])
    contrib = -(1.2 / 0.05) * (vols * div) / 4.0
    ref = np.zeros(medium_mesh.nnode)
    np.add.at(ref, medium_mesh.connectivity.ravel(), np.repeat(contrib, 4))
    assert _close_to_reference(divergence_rhs(medium_mesh, u, 1.2, 0.05), ref)


def test_pressure_gradient_bitwise_equals_seed_path(medium_mesh):
    rng = np.random.default_rng(14)
    p = rng.standard_normal(medium_mesh.nnode)
    grads, dets = tet4_gradients(medium_mesh.element_coords())
    vols = dets / 6.0
    gp = np.einsum("eai,ea->ei", grads, p[medium_mesh.connectivity])
    contrib = (vols / 4.0)[:, None, None] * gp[:, None, :].repeat(4, axis=1)
    acc = np.zeros((medium_mesh.nnode, 3))
    np.add.at(acc, medium_mesh.connectivity.ravel(), contrib.reshape(-1, 3))
    mass = np.zeros(medium_mesh.nnode)
    quarters = np.repeat(medium_mesh.element_volumes() / 4.0, 4)
    np.add.at(mass, medium_mesh.connectivity.ravel(), quarters)
    ref = acc / mass[:, None]
    solver = PressureSolver(medium_mesh, use_amg=False)
    assert _close_to_reference(solver.pressure_gradient(p), ref)


def test_divergence_rhs_sums_to_zero_without_boundary_flux(jittered_mesh):
    """``sum_a rhs_a = -(rho/dt) int div u`` is the boundary flux, which
    vanishes for a velocity that is zero on the boundary."""
    mesh = jittered_mesh
    u = np.random.default_rng(16).standard_normal((mesh.nnode, 3))
    u[mesh.boundary_nodes()] = 0.0
    rhs = divergence_rhs(mesh, u, 1.2, 0.05)
    assert abs(rhs.sum()) <= 1e-12 * np.abs(rhs).sum()


def test_p1_derivatives_exact_on_linear_fields(jittered_mesh):
    mesh = jittered_mesh
    rng = np.random.default_rng(17)
    jac, offset = rng.standard_normal((3, 3)), rng.standard_normal(3)
    u = mesh.coords @ jac.T + offset  # du_i/dx_j = jac[i, j]
    ops = get_plan(mesh).p1_derivatives()
    div = sum(de @ u[:, i] for i, de in enumerate(ops.elemental))
    assert np.allclose(div, np.trace(jac), rtol=0.0, atol=1e-12)
    # nodal gradient of the linear scalar u_0, boundary nodes included
    mass = get_plan(mesh).lumped_mass()
    for i, dn in enumerate(ops.nodal):
        assert np.allclose((dn @ u[:, 0]) / mass, jac[0, i], rtol=0.0, atol=1e-12)
    solver = PressureSolver(mesh, use_amg=False)
    assert np.allclose(
        solver.pressure_gradient(u[:, 0]), jac[0], rtol=0.0, atol=1e-12
    )


def test_each_derivative_triple_shares_one_pattern_and_keeps_the_products_bits():
    """The nodal ``Dn_i`` sit on the structural pattern of ``S^T De`` with
    the exact zeros scipy's product drops put back: one set of index arrays
    for the triple (as for the elemental ``De_i``), the same matrices, and
    products with finite blocks whose bytes are the dropped-zero ones'."""
    import scipy.sparse as sp

    mesh = box_tet_mesh(5, 5, 5)  # axis-aligned: many exact zeros
    ops, conn = get_plan(mesh).p1_derivatives(), mesh.connectivity
    for triple in (ops.elemental, ops.nodal):
        assert len({(m.indptr.ctypes.data, m.indices.ctypes.data) for m in triple}) == 1
    vols = get_plan(mesh).geometry().volumes
    lump_t = sp.csr_matrix((np.repeat(vols / 4.0, 4), conn.ravel(), np.arange(0, conn.size + 1, 4)),
                           shape=(len(conn), mesh.nnode)).T.tocsr()
    x = np.random.default_rng(19).standard_normal((mesh.nnode, 5))
    x[::7] = 0.0
    dropped = 0
    for dn, de in zip(ops.nodal, ops.elemental):
        ref = lump_t @ de
        dropped += dn.nnz - ref.nnz
        assert (dn != ref).nnz == 0
        assert (dn @ x).tobytes() == (ref @ x).tobytes()
        assert (dn @ x[:, 0]).tobytes() == (ref @ x[:, 0]).tobytes()
    assert dropped > 0


def test_max_divergence_equals_einsum_formula(jittered_mesh, params):
    mesh = jittered_mesh
    u = np.random.default_rng(18).standard_normal((mesh.nnode, 3))
    grads, _ = tet4_gradients(mesh.element_coords())
    ref = np.abs(np.einsum("eai,eai->e", grads, u[mesh.connectivity])).max()
    solver = FractionalStepSolver(
        mesh, params, pressure_solver=PressureSolver(mesh, use_amg=False)
    )
    assert solver.max_divergence(u) == pytest.approx(ref, rel=1e-13)


def test_to_nodal_bitwise_equals_seed_path(medium_mesh):
    """A volume-weighted element-to-node projection through the plan's
    scatter equals the ``np.add.at`` one bit for bit."""
    rng = np.random.default_rng(15)
    data = rng.standard_normal((medium_mesh.nelem, 3))
    vols = medium_mesh.element_volumes()
    contrib = (data * vols[:, None])[:, None, :].repeat(4, axis=1)
    acc = np.zeros((medium_mesh.nnode, 3))
    wsum = np.zeros(medium_mesh.nnode)
    np.add.at(acc, medium_mesh.connectivity.ravel(), contrib.reshape(-1, 3))
    np.add.at(wsum, medium_mesh.connectivity.ravel(), np.repeat(vols, 4))
    ref = acc / np.maximum(wsum, 1e-300)[:, None]
    scatter = get_plan(medium_mesh).scatter
    got = scatter.scatter(contrib.reshape(-1, 3))
    got /= np.maximum(scatter.scatter(np.repeat(vols, 4)), 1e-300)[:, None]
    assert np.array_equal(got, ref)


# -- deferred accumulator internals ----------------------------------------------


def test_accumulator_pattern_reused_across_assemblies(small_mesh, params):
    plan = AssemblyPlan(small_mesh)
    asm = UnifiedAssembler(small_mesh, params, vector_dim=16)
    asm.plan = plan  # isolate pattern bookkeeping from the shared cache
    asm.packing = plan.packing(16)
    u = np.zeros((small_mesh.nnode, 3))
    asm.assemble("B", u)
    assert len(plan._patterns) == 1
    asm.assemble("B", u)
    assert len(plan._patterns) == 1  # reused, not rebuilt
    asm.assemble("RSP", u)
    assert len(plan._patterns) == 2  # separate key per variant


def test_accumulator_rejects_out_of_order_reuse(small_mesh):
    plan = AssemblyPlan(small_mesh)
    packing = plan.packing(16)
    groups = list(packing)
    acc = plan.accumulator(key=("t", 16))
    for g in groups:
        acc.begin_group(g)
        acc.add(0, 0, np.ones(g.vector_dim))
    acc.finalize(np.zeros((small_mesh.nnode, 3)))
    acc2 = plan.accumulator(key=("t", 16))
    acc2.begin_group(groups[0])
    acc2.add(1, 0, np.ones(groups[0].vector_dim))  # different slot
    with pytest.raises(RuntimeError, match="scatter pattern"):
        acc2.finalize(np.zeros((small_mesh.nnode, 3)))


def test_interpreted_and_bound_sweeps_write_the_same_signature(small_mesh):
    """A mesh-bound kernel writes ``(ngroups, calls)`` down from its
    program; the accumulator reduces its call-by-call list to the same
    form, so either may build the pattern the other reuses -- and a
    sweep whose groups disagree equals neither."""
    from repro.fem.plan import compact_signature
    from repro.physics import AssemblyParams

    u = np.zeros((small_mesh.nnode, 3))
    for first, second in (("interpreted", "codegen"), ("compiled", "interpreted")):
        plan = AssemblyPlan(small_mesh)
        for mode in (first, second):
            asm = UnifiedAssembler(
                small_mesh, AssemblyParams(), vector_dim=16, mode=mode
            )
            asm.plan = plan
            asm.packing = plan.packing(16)
            asm.assemble("RS", u)
        (pattern,) = plan._patterns.values()
        ngroups, calls = pattern.signature
        assert ngroups == plan.packing(16).ngroups and len(calls) == 12

    regular = [(g, s, c) for g in range(3) for s, c in ((0, 0), (1, 2))]
    assert compact_signature(regular) == (3, ((0, 0), (1, 2)))
    assert compact_signature([]) == (0, ())
    swapped = regular[:4] + [regular[5], regular[4]]
    assert compact_signature(swapped) == (3, tuple(swapped))


# -- plan lifetime ------------------------------------------------------------------


def _warm_plan(mesh):
    """A plan holding everything a served mesh accumulates: geometry, a
    packing, a compiled tape and its scatter pattern."""
    from repro.physics import AssemblyParams

    UnifiedAssembler(
        mesh, AssemblyParams(), vector_dim=16, mode="compiled"
    ).assemble("RS", np.zeros((mesh.nnode, 3)))
    plan = get_plan(mesh)
    plan.geometry()
    return plan


def test_dropped_meshes_release_their_plans():
    """The plan refers back to its mesh, so it must be owned *by* the
    mesh: a table keyed on the mesh would pin every mesh forever."""
    import gc
    import weakref

    refs = []
    for _ in range(5):
        mesh = box_tet_mesh(3, 3, 3)
        plan = _warm_plan(mesh)
        assert get_plan(mesh) is plan
        refs += [weakref.ref(mesh), weakref.ref(plan)]
    del mesh, plan
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_mesh_cache_eviction_releases_plan():
    """Evicting a mesh from the server's LRU frees its warm plan."""
    import gc
    import weakref

    from repro.server.cache import MeshCache
    from repro.server.protocol import MeshSpec

    cache = MeshCache(max_entries=1)
    first = weakref.ref(_warm_plan(cache.get(MeshSpec(2, 2, 2))))
    gc.collect()
    assert first() is not None  # cached mesh keeps its plan warm
    cache.get(MeshSpec(3, 2, 2))  # evicts the 2x2x2 mesh
    gc.collect()
    assert first() is None


def test_pickled_and_copied_meshes_leave_the_plan_behind():
    """The plan holds exec'd kernels; a pickle or deep copy of a warm
    mesh carries the mesh only and plans afresh."""
    import copy
    import pickle

    mesh = box_tet_mesh(2, 2, 2)
    plan = _warm_plan(mesh)
    for clone in (pickle.loads(pickle.dumps(mesh)), copy.deepcopy(mesh)):
        assert clone._plan is None
        assert np.array_equal(clone.connectivity, mesh.connectivity)
        assert get_plan(clone) is not plan
    assert get_plan(mesh) is plan
