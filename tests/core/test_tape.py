"""Compiled kernel tapes: bit-identity, arena reuse, caching.

The hard contract of :mod:`repro.core.tape` is that replaying the recorded
tape through the preallocated buffer arena produces a RHS **bit-identical**
to the interpreted :class:`~repro.core.dsl.NumpyBackend` path -- for every
variant and every group size (including padded final groups).
``np.array_equal`` (not allclose) everywhere below.
"""

import numpy as np
import pytest

from repro.core import ScenarioBatch, variant_names
from repro.core.dsl import KernelContext, NumpyBackend
from repro.core.storage import Storage, TempSpec
from repro.core.tape import compiled_tape, record_program, tape_cache_key
from repro.fem import TetMesh, box_tet_mesh
from repro.fem.plan import get_plan
from repro.physics import AssemblyParams
from repro.physics.fractional_step import resolve_assembler
from repro.physics.momentum import element_rhs
from tests.core.test_codegen import _velocity
from tests.core.test_differential import corner


# -- bit-identity --------------------------------------------------------------


test_compiled_bitwise_equal_all_variants = corner("test_compiled_bitwise_equal_all_variants")
test_compiled_bitwise_equal_hypothesis = corner("test_compiled_bitwise_equal_hypothesis")
test_compiled_repeat_executions_stable = corner("test_compiled_repeat_executions_stable")


def test_compiled_accumulates_into_rhs(small_mesh, params):
    """execute(velocity, rhs=...) adds into the caller's array."""
    u = _velocity(small_mesh)
    plan = get_plan(small_mesh)
    tape = compiled_tape(plan, "RS", 33, ScenarioBatch([params]))
    base = np.ones((1, small_mesh.nnode, 3))
    out = tape.execute(u, rhs=base)
    assert out is base
    fresh = tape.execute(u)
    assert np.array_equal(out, fresh + 1.0)


# -- arena / report ------------------------------------------------------------


@pytest.mark.parametrize("variant", variant_names())
def test_arena_smaller_than_tape(params, variant):
    """Liveness planning packs many SSA values into few buffers."""
    program = record_program(variant, ScenarioBatch([params]))
    rep = program.report
    assert rep.ops_live <= rep.ops_recorded
    assert 0 < rep.buffers_live < rep.ops_live
    assert rep.scatter_calls > 0
    assert rep.arena_bytes(16) == rep.buffers_live * 16 * 8
    assert variant in rep.summary()


def test_baseline_dce_removes_dead_ops(params):
    """The B variant's dead stores are eliminated; RS records a lean tape."""
    b = record_program("B", ScenarioBatch([params])).report
    rs = record_program("RS", ScenarioBatch([params])).report
    assert b.ops_recorded >= b.ops_live
    assert rs.ops_live < b.ops_live  # restructuring shrinks the tape
    assert rs.buffers_live < b.buffers_live


# -- caching -------------------------------------------------------------------


def test_tape_cached_on_plan(small_mesh, params):
    plan = get_plan(small_mesh)
    t1 = compiled_tape(plan, "RSP", 33, ScenarioBatch([params]))
    t2 = compiled_tape(plan, "RSP", 33, ScenarioBatch([params]))
    assert t1 is t2
    t3 = compiled_tape(plan, "RSP", 16, ScenarioBatch([params]))
    assert t3 is not t1  # different vector_dim -> different tape


def test_cache_key_includes_params():
    """Runtime flags specialize the recording: params must key the cache."""
    a = AssemblyParams()
    b = AssemblyParams(viscosity=2.0e-3)
    key_a = tape_cache_key("rsp", 16, ScenarioBatch([a]))
    key_b = tape_cache_key("rsp", 16, ScenarioBatch([b]))
    assert key_a != key_b
    assert key_a[0] == "RSP"


# -- elemental tape: a mesh of disjoint elements -------------------------------


def _elemental(variant, params, xel, uel):
    """The tape swept over ``xel`` as a mesh of disjoint elements: each node
    receives one lane, so the ``(4n, 3)`` RHS is the ``(n, 4, 3)`` elemental one."""
    n = len(xel)
    mesh = TetMesh(xel.reshape(-1, 3), np.arange(4 * n).reshape(n, 4), validate=False)
    tape = compiled_tape(get_plan(mesh), variant, 16, ScenarioBatch([params]))
    return tape.execute(uel.reshape(-1, 3)).reshape(xel.shape)


def test_elemental_tape_matches_element_rhs(small_mesh, params):
    xel = get_plan(small_mesh).packed_coords()
    uel = _velocity(small_mesh)[small_mesh.connectivity]
    out = _elemental("RSP", params, xel, uel)
    ref = element_rhs(xel, uel, params)
    assert out.shape == ref.shape == (small_mesh.nelem, 4, 3)
    assert np.allclose(out, ref, atol=1e-14)


def test_elemental_tape_chunking_consistent(small_mesh, params):
    """Chunked replay equals one-shot replay, bit for bit."""
    xel = get_plan(small_mesh).packed_coords()
    uel = _velocity(small_mesh, 4)[small_mesh.connectivity]
    whole = _elemental("RS", params, xel, uel)
    cuts = (slice(0, 50), slice(50, None))
    parts = [_elemental("RS", params, xel[s], uel[s]) for s in cuts]
    assert np.array_equal(np.concatenate(parts), whole)


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
