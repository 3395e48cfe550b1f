"""Compiled kernel tapes: bit-identity, arena reuse, caching.

The hard contract of :mod:`repro.core.tape` is that replaying the recorded
tape through the preallocated buffer arena produces a RHS **bit-identical**
to the interpreted :class:`~repro.core.dsl.NumpyBackend` path -- for every
variant, every group size (including padded final groups) and any element
permutation.  ``np.array_equal`` (not allclose) everywhere below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UnifiedAssembler, variant_names
from repro.core.dsl import KernelContext, NumpyBackend
from repro.core.storage import Storage, TempSpec
from repro.core.tape import compiled_tape, record_program, tape_cache_key
from repro.fem import box_tet_mesh
from repro.fem.plan import get_plan
from repro.parallel import MultiprocessRunner
from repro.parallel.runner import _chunk_kernel
from repro.physics import AssemblyParams
from repro.physics.fractional_step import resolve_assembler
from repro.physics.momentum import element_rhs


def _velocity(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return 0.1 * rng.standard_normal((mesh.nnode, 3))


# -- bit-identity --------------------------------------------------------------


@pytest.mark.parametrize("variant", variant_names())
def test_compiled_bitwise_equal_all_variants(small_mesh, params, variant):
    """Compiled == interpreted == seed no-plan path, bit for bit."""
    u = _velocity(small_mesh)
    # 162 elements, vector_dim 100 -> padded final group
    interp = UnifiedAssembler(small_mesh, params, vector_dim=100)
    comp = UnifiedAssembler(small_mesh, params, vector_dim=100, mode="compiled")
    seed = UnifiedAssembler(small_mesh, params, vector_dim=100, use_plan=False)
    ref = interp.assemble(variant, u)
    out = comp.assemble(variant, u)
    assert np.array_equal(ref, out)
    assert np.array_equal(seed.assemble(variant, u), out)


@settings(max_examples=12, deadline=None)
@given(
    variant=st.sampled_from(["B", "P", "RS", "RSP", "RSPR"]),
    vector_dim=st.integers(min_value=3, max_value=200),
    seed=st.integers(min_value=0, max_value=5),
)
def test_compiled_bitwise_equal_hypothesis(variant, vector_dim, seed):
    """Property: bit-identity holds for any group size and velocity."""
    mesh = box_tet_mesh(3, 3, 3)  # fresh mesh per example: no cache bleed
    params = AssemblyParams(body_force=(0.05, -0.1, 0.2))
    u = _velocity(mesh, seed)
    interp = UnifiedAssembler(mesh, params, vector_dim=vector_dim)
    comp = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="compiled"
    )
    assert np.array_equal(
        interp.assemble(variant, u), comp.assemble(variant, u)
    )


def test_compiled_bitwise_equal_with_permutation(small_mesh, params):
    """An element permutation changes packing order, not the result bits."""
    u = _velocity(small_mesh, 3)
    perm = np.random.default_rng(7).permutation(small_mesh.nelem)
    interp = UnifiedAssembler(
        small_mesh, params, vector_dim=33, permutation=perm
    )
    comp = UnifiedAssembler(
        small_mesh, params, vector_dim=33, permutation=perm, mode="compiled"
    )
    assert np.array_equal(
        interp.assemble("RSP", u), comp.assemble("RSP", u)
    )


def test_compiled_repeat_executions_stable(small_mesh, params):
    """Arena reuse must not leak state between executions."""
    u = _velocity(small_mesh, 1)
    comp = UnifiedAssembler(small_mesh, params, vector_dim=33, mode="compiled")
    first = comp.assemble("B", u)
    for _ in range(3):
        assert np.array_equal(comp.assemble("B", u), first)
    # and a different velocity afterwards still matches interpreted
    u2 = _velocity(small_mesh, 2)
    interp = UnifiedAssembler(small_mesh, params, vector_dim=33)
    assert np.array_equal(comp.assemble("B", u2), interp.assemble("B", u2))


def test_compiled_accumulates_into_rhs(small_mesh, params):
    """execute(velocity, rhs=...) adds into the caller's array."""
    u = _velocity(small_mesh)
    plan = get_plan(small_mesh)
    tape = compiled_tape(
        plan, "RS", 33, kernel_params=params.as_kernel_params()
    )
    base = np.ones((small_mesh.nnode, 3))
    out = tape.execute(u, rhs=base)
    assert out is base
    fresh = tape.execute(u)
    assert np.array_equal(out, fresh + 1.0)


# -- arena / report ------------------------------------------------------------


@pytest.mark.parametrize("variant", variant_names())
def test_arena_smaller_than_tape(params, variant):
    """Liveness planning packs many SSA values into few buffers."""
    program = record_program(variant, params.as_kernel_params())
    rep = program.report
    assert rep.ops_live <= rep.ops_recorded
    assert 0 < rep.buffers_live < rep.ops_live
    assert rep.scatter_calls > 0
    assert rep.arena_bytes(16) == rep.buffers_live * 16 * 8
    assert variant in rep.summary()


def test_baseline_dce_removes_dead_ops(params):
    """The B variant's dead stores are eliminated; RS records a lean tape."""
    b = record_program("B", params.as_kernel_params()).report
    rs = record_program("RS", params.as_kernel_params()).report
    assert b.ops_recorded >= b.ops_live
    assert rs.ops_live < b.ops_live  # restructuring shrinks the tape
    assert rs.buffers_live < b.buffers_live


# -- caching -------------------------------------------------------------------


def test_tape_cached_on_plan(small_mesh, params):
    plan = get_plan(small_mesh)
    kp = params.as_kernel_params()
    t1 = compiled_tape(plan, "RSP", 33, kernel_params=kp)
    t2 = compiled_tape(plan, "RSP", 33, kernel_params=kp)
    assert t1 is t2
    t3 = compiled_tape(plan, "RSP", 16, kernel_params=kp)
    assert t3 is not t1  # different vector_dim -> different tape


def test_cache_key_includes_params():
    """Runtime flags specialize the recording: params must key the cache."""
    a = AssemblyParams()
    b = AssemblyParams(viscosity=2.0e-3)
    key_a = tape_cache_key("rsp", 16, None, a.as_kernel_params())
    key_b = tape_cache_key("rsp", 16, None, b.as_kernel_params())
    assert key_a != key_b
    assert key_a[0] == "RSP"


def test_tape_invalidated_by_fix_orientation(params):
    """Repairing the mesh bumps its version; stale tapes must not survive."""
    mesh = box_tet_mesh(3, 3, 3)
    u = _velocity(mesh)
    comp = UnifiedAssembler(mesh, params, vector_dim=33, mode="compiled")
    before = comp.assemble("RS", u)
    old_plan = get_plan(mesh)

    # corrupt one element's orientation, then repair it
    with mesh.mutate():
        conn = mesh._connectivity
        conn[0, 1], conn[0, 2] = conn[0, 2].copy(), conn[0, 1].copy()
    assert mesh.fix_orientation() == 1

    plan = get_plan(mesh)
    assert plan is not old_plan  # new mesh version -> new plan -> no tapes
    comp2 = UnifiedAssembler(mesh, params, vector_dim=33, mode="compiled")
    after = comp2.assemble("RS", u)
    interp = UnifiedAssembler(mesh, params, vector_dim=33)
    assert np.array_equal(after, interp.assemble("RS", u))
    assert np.array_equal(after, before)  # repaired orientation = original


# -- elemental tape (multiprocess worker path) ---------------------------------


def _elemental(program, xel, uel):
    """A worker's sweep: the program bound to the chunk as a mesh."""
    return _chunk_kernel(program, xel).execute(uel.reshape(-1, 3)).reshape(xel.shape)


def test_elemental_tape_matches_element_rhs(small_mesh, params):
    program = record_program("RSP", params.as_kernel_params())
    xel = get_plan(small_mesh).packed_coords()
    uel = _velocity(small_mesh)[small_mesh.connectivity]
    out = _elemental(program, xel, uel)
    ref = element_rhs(xel, uel, params)
    assert out.shape == ref.shape == (small_mesh.nelem, 4, 3)
    assert np.allclose(out, ref, atol=1e-14)


def test_elemental_tape_chunking_consistent(small_mesh, params):
    """Chunked replay (runner-style) equals one-shot replay, bit for bit."""
    program = record_program("RS", params.as_kernel_params())
    xel = get_plan(small_mesh).packed_coords()
    uel = _velocity(small_mesh, 4)[small_mesh.connectivity]
    whole = _elemental(program, xel, uel)
    cuts = (slice(0, 50), slice(50, None))
    parts = [_elemental(program, xel[s], uel[s]) for s in cuts]
    assert np.array_equal(np.concatenate(parts), whole)


def test_runner_compiled_mode_smoke(params):
    mesh = box_tet_mesh(3, 3, 3)
    runner = MultiprocessRunner(
        mesh, params, repeats=1, assembly_mode="compiled", variant="RSP"
    )
    points = runner.measure([1])
    assert len(points) == 1 and points[0].wall_seconds > 0


def test_runner_rejects_unknown_mode(params):
    mesh = box_tet_mesh(3, 3, 3)
    with pytest.raises(ValueError, match="assembly_mode"):
        MultiprocessRunner(mesh, params, assembly_mode="jit")


# -- solver integration --------------------------------------------------------


def test_solver_compiled_spec_matches_interpreted(small_mesh, params):
    from repro.physics.fractional_step import FractionalStepSolver

    u0 = _velocity(small_mesh, 5)
    velocities = []
    for spec in ("interpreted:RS", "compiled:RS"):
        solver = FractionalStepSolver(
            small_mesh, params, assemble=spec, sweeps_per_step=1
        )
        solver.set_velocity(u0)
        solver.advance(1e-3)
        velocities.append(solver.velocity.copy())
    assert np.array_equal(velocities[0], velocities[1])


def test_resolve_assembler_specs(small_mesh, params):
    ref = resolve_assembler("reference", small_mesh, params)
    from repro.physics.momentum import assemble_momentum_rhs

    assert ref is assemble_momentum_rhs
    comp = resolve_assembler("compiled:rs", small_mesh, params)
    assert comp.variant == "RS"
    assert comp.assembler.mode == "compiled"
    with pytest.raises(ValueError, match="spec"):
        resolve_assembler("jit:RS", small_mesh, params)


def test_kernel_assembler_rejects_foreign_mesh_and_params(small_mesh, params):
    from repro.physics.momentum import kernel_rhs_assembler

    assemble = kernel_rhs_assembler(small_mesh, params, mode="compiled")
    other = box_tet_mesh(2, 2, 2)
    u = _velocity(small_mesh)
    with pytest.raises(ValueError, match="mesh"):
        assemble(other, _velocity(other), params)
    with pytest.raises(ValueError, match="params"):
        assemble(small_mesh, u, AssemblyParams(viscosity=9.0))


# -- write_before_read temp contract (NumpyBackend satellite) ------------------


def test_temp_write_before_read_skips_zero_fill():
    ctx = KernelContext(
        connectivity=np.zeros((4, 4), dtype=np.int64),
        coords=np.zeros((4, 3)),
        fields={},
        rhs=np.zeros((4, 3)),
        params={},
    )
    bk = NumpyBackend(ctx)
    zeroed = bk.temp("z", (2,), Storage.PRIVATE)
    assert np.array_equal(zeroed.data, np.zeros_like(zeroed.data))
    hot = bk.temp("h", (2,), Storage.PRIVATE, write_before_read=True)
    assert hot.data.shape == zeroed.data.shape  # contents undefined by contract
    spec = TempSpec(name="h", shape=(2,), storage=Storage.PRIVATE,
                    write_before_read=True)
    assert spec.write_before_read
