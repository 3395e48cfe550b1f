"""Generated assembly kernels: bit-identity, caching, invalidation, wiring.

The contract of :mod:`repro.core.codegen` is the tape contract plus one
more layer: the exec-compiled generated source must produce an RHS
**bit-identical** to the interpreted backend for every variant, group
size (including padded final groups), permutation, ordering and executor
-- while fusing expression chains and hoisting loop invariants.
``np.array_equal`` (not allclose) everywhere below.
"""

import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UnifiedAssembler, variant_names
from repro.core.codegen import _CODE_CACHE, generate_program, generated_kernel
from repro.core.tape import record_program
from repro.fem import box_tet_mesh
from repro.fem.plan import get_plan
from repro.obs.metrics import get_registry
from repro.obs.profiler import TapeProfiler
from repro.parallel.runner import _chunk_kernel, _chunk_program
from repro.physics import AssemblyParams
from repro.physics.fractional_step import resolve_assembler


def _velocity(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return 0.1 * rng.standard_normal((mesh.nnode, 3))


def _count(name):
    snap = get_registry().snapshot().get(name)
    return 0.0 if snap is None else snap["value"]


# -- bit-identity --------------------------------------------------------------


@pytest.mark.parametrize("variant", variant_names())
def test_codegen_bitwise_equal_all_variants(small_mesh, params, variant):
    """Generated == interpreted == compiled replay, bit for bit."""
    u = _velocity(small_mesh)
    # 162 elements, vector_dim 100 -> padded final group
    interp = UnifiedAssembler(small_mesh, params, vector_dim=100)
    comp = UnifiedAssembler(small_mesh, params, vector_dim=100, mode="compiled")
    gen = UnifiedAssembler(small_mesh, params, vector_dim=100, mode="codegen")
    ref = interp.assemble(variant, u)
    out = gen.assemble(variant, u)
    assert np.array_equal(ref, out)
    assert np.array_equal(comp.assemble(variant, u), out)
    # second sweep reuses the cached kernel -- still identical
    assert np.array_equal(gen.assemble(variant, u), out)


@settings(max_examples=12, deadline=None)
@given(
    variant=st.sampled_from(["B", "P", "RS", "RSP", "RSPR"]),
    vector_dim=st.integers(min_value=3, max_value=200),
    seed=st.integers(min_value=0, max_value=5),
    executor=st.sampled_from(["serial", "threads"]),
)
def test_codegen_bitwise_equal_hypothesis(variant, vector_dim, seed, executor):
    """Property: bit-identity for any group size, velocity and executor."""
    mesh = box_tet_mesh(3, 3, 3)  # fresh mesh per example: no cache bleed
    params = AssemblyParams(body_force=(0.05, -0.1, 0.2))
    u = _velocity(mesh, seed)
    interp = UnifiedAssembler(mesh, params, vector_dim=vector_dim)
    kwargs = {}
    if executor == "threads":
        kwargs = dict(executor="threads", num_threads=2, chunk_groups=1)
    gen = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="codegen", **kwargs
    )
    assert np.array_equal(
        interp.assemble(variant, u), gen.assemble(variant, u)
    )


def test_codegen_bitwise_with_permutation_and_ordering(small_mesh, params):
    """Packing-order changes (random or SFC permutation) keep bit-identity."""
    from repro.fem.reorder import element_order

    u = _velocity(small_mesh, 3)
    perm = np.random.default_rng(7).permutation(small_mesh.nelem)
    sfc = element_order(small_mesh, "hilbert")
    for kwargs in (dict(permutation=perm), dict(permutation=sfc)):
        interp = UnifiedAssembler(
            small_mesh, params, vector_dim=33, **kwargs
        )
        gen = UnifiedAssembler(
            small_mesh, params, vector_dim=33, mode="codegen", **kwargs
        )
        for variant in ("B", "RSPR"):
            assert np.array_equal(
                interp.assemble(variant, u), gen.assemble(variant, u)
            )


# -- caching and invalidation --------------------------------------------------


def test_generated_kernel_cached_on_plan(params):
    mesh = box_tet_mesh(3, 3, 3)
    plan = get_plan(mesh)
    kp = params.as_kernel_params()
    k1 = generated_kernel(plan, "RSP", 33, kernel_params=kp)
    hits0 = _count("codegen.cache_hits")
    execs0 = _count("codegen.source_compiles") + _count(
        "codegen.source_reuses"
    )
    k2 = generated_kernel(plan, "RSP", 33, kernel_params=kp)
    assert k2 is k1  # plan-cache hit returns the bound kernel itself
    assert _count("codegen.cache_hits") == hits0 + 1
    # ... and must not touch the source/exec layer at all
    assert (
        _count("codegen.source_compiles") + _count("codegen.source_reuses")
        == execs0
    )
    k3 = generated_kernel(plan, "RSP", 16, kernel_params=kp)
    assert k3 is not k1  # different vector_dim -> different kernel


def test_codegen_emission_is_deterministic(params):
    """Equal configs emit byte-identical source and reuse the code cache."""
    kp = params.as_kernel_params()
    p1 = generate_program("RS", 32, kernel_params=kp)
    p2 = generate_program("RS", 32, kernel_params=kp)
    assert p1.source == p2.source
    assert p1.stmt_costs == p2.stmt_costs
    assert generate_program("RS", 64, kernel_params=kp).source != p1.source


def test_codegen_invalidated_by_fix_orientation(params):
    """Repairing the mesh bumps its version; stale kernels must not survive."""
    mesh = box_tet_mesh(3, 3, 3)
    u = _velocity(mesh)
    gen = UnifiedAssembler(mesh, params, vector_dim=33, mode="codegen")
    before = gen.assemble("RS", u)
    old_plan = get_plan(mesh)

    # corrupt one element's orientation, then repair it
    with mesh.mutate():
        conn = mesh._connectivity
        conn[0, 1], conn[0, 2] = conn[0, 2].copy(), conn[0, 1].copy()
    assert mesh.fix_orientation() == 1

    plan = get_plan(mesh)
    assert plan is not old_plan  # new mesh version -> new plan -> no kernels
    gen2 = UnifiedAssembler(mesh, params, vector_dim=33, mode="codegen")
    after = gen2.assemble("RS", u)
    interp = UnifiedAssembler(mesh, params, vector_dim=33)
    assert np.array_equal(after, interp.assemble("RS", u))
    assert np.array_equal(after, before)  # repaired orientation = original


def _rebound(blob: bytes, xel: np.ndarray, u: np.ndarray):
    """In a spawned process: what the shipped bytes exec and compute."""
    kern = _chunk_kernel(pickle.loads(blob), xel)
    return list(_CODE_CACHE), kern.execute(u).tobytes()


def test_elemental_program_pickles_to_identical_source(params):
    """A pool worker binds the very program its parent generated: the pickle
    carries the source it execs; the chunk's bytes are the parent's."""
    rng = np.random.default_rng(5)
    xel, u = rng.standard_normal((23, 4, 3)), rng.standard_normal((92, 3))
    tape = _chunk_program("compiled", "RSP", params)
    want = _chunk_kernel(tape, xel).execute(u).tobytes()
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        for program in (tape, _chunk_program("codegen", "RSP", params)):
            assert _chunk_kernel(program, xel).execute(u).tobytes() == want
            sources, got = pool.apply(_rebound, (pickle.dumps(program), xel, u))
            assert got == want
            assert sources == ([program.source] if program is not tape else [])


def test_codegen_dump_flag_writes_source(params, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_DUMP", str(tmp_path))
    generate_program("RS", 8, kernel_params=params.as_kernel_params())
    dumped = tmp_path / "RS_vd8.py"
    assert dumped.exists()
    text = dumped.read_text()
    assert "def factory(" in text and "def setup(" in text


# -- fusion / arena accounting (TapeReport) ------------------------------------


def test_codegen_report_reflects_fusion(params):
    kp = params.as_kernel_params()
    gen = generate_program("B", 64, kernel_params=kp)
    replay = record_program("B", kp)
    # both back ends lower the same scheduled program: fusion shows up as
    # fewer statements than live ops, the shared schedule as a small
    # replay arena (211 rows before replay was scheduled)
    assert gen.report.ops_live == replay.report.ops_live
    assert len(gen.stmt_costs) < gen.report.ops_live - gen.report.hoisted_ops
    assert replay.report.buffers_live <= 100
    assert gen.report.fused_ops > 0
    assert gen.report.hoisted_ops > 0
    assert gen.report.pinned_buffers > 0
    summary = gen.report.summary()
    assert "ops fused" in summary and "hoisted" in summary


# -- profiler attribution ------------------------------------------------------


def test_codegen_profiled_run_keeps_bits_and_attributes_fusion(
    small_mesh, params
):
    u = _velocity(small_mesh)
    profiler = TapeProfiler()
    gen = UnifiedAssembler(
        small_mesh, params, vector_dim=32, mode="codegen", profiler=profiler
    )
    interp = UnifiedAssembler(small_mesh, params, vector_dim=32)
    assert np.array_equal(gen.assemble("RS", u), interp.assemble("RS", u))
    prof = profiler.profiles[("RS", 32, "codegen", "serial")]
    program = generate_program("RS", 32, kernel_params=params.as_kernel_params())
    assert len(prof.labels) == len(program.stmt_costs)
    # a fused statement reports the summed costs of its constituents,
    # labelled <root>+<k>
    assert any("+" in label for label in prof.labels)
    assert prof.executions >= 1
    assert sum(prof.seconds) > 0.0


# -- mode wiring ---------------------------------------------------------------


def test_resolve_assembler_codegen_spec(params):
    mesh = box_tet_mesh(3, 3, 3)
    u = _velocity(mesh)
    gen = resolve_assembler("codegen:RS", mesh, params)
    comp = resolve_assembler("compiled:RS", mesh, params)
    assert np.array_equal(gen(mesh, u, params), comp(mesh, u, params))
    with pytest.raises(ValueError, match="codegen\\[:VARIANT\\]"):
        resolve_assembler("quantum", mesh, params)
