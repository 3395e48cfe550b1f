"""Generated assembly kernels: bit-identity, caching, wiring.

The contract of :mod:`repro.core.codegen` is the tape contract plus one
more layer: the exec-compiled generated source must produce an RHS
**bit-identical** to the interpreted backend for every variant, group
size (including padded final groups) and executor -- while fusing expression chains and hoisting loop invariants.
``np.array_equal`` (not allclose) everywhere below.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import ScenarioBatch, UnifiedAssembler
from repro.core.codegen import _CODE_CACHE, generate_program, generated_kernel
from repro.core.tape import compiled_tape, record_program
from repro.fem import TetMesh, box_tet_mesh
from repro.fem.plan import get_plan
from repro.obs.profiler import TapeProfiler
from repro.physics.fractional_step import resolve_assembler
from tests.core.test_batch import _count
from tests.core.test_differential import corner


def _velocity(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return 0.1 * rng.standard_normal((mesh.nnode, 3))


# -- bit-identity --------------------------------------------------------------


test_codegen_bitwise_equal_all_variants = corner("test_codegen_bitwise_equal_all_variants")
test_codegen_bitwise_equal_hypothesis = corner("test_codegen_bitwise_equal_hypothesis")


# -- caching and invalidation --------------------------------------------------


def test_generated_kernel_cached_on_plan(params):
    mesh = box_tet_mesh(3, 3, 3)
    plan = get_plan(mesh)
    one = ScenarioBatch([params])
    k1 = generated_kernel(plan, "RSP", 33, one)
    hits0 = _count("codegen.cache_hits")
    execs0 = _count("codegen.source_compiles") + _count(
        "codegen.source_reuses"
    )
    k2 = generated_kernel(plan, "RSP", 33, ScenarioBatch([params]))
    assert k2 is k1  # plan-cache hit returns the bound kernel itself
    assert _count("codegen.cache_hits") == hits0 + 1
    # ... and must not touch the source/exec layer at all
    assert (
        _count("codegen.source_compiles") + _count("codegen.source_reuses")
        == execs0
    )
    k3 = generated_kernel(plan, "RSP", 16, one)
    assert k3 is not k1  # different vector_dim -> different kernel


def test_codegen_emission_is_deterministic(params):
    """Equal configs emit byte-identical source and reuse the code cache."""
    one = ScenarioBatch([params])
    p1 = generate_program("RS", 32, one)
    p2 = generate_program("RS", 32, ScenarioBatch([params]))
    assert p1.source == p2.source
    assert p1.stmt_costs == p2.stmt_costs
    assert generate_program("RS", 64, one).source != p1.source


def _elemental(xel: np.ndarray, u: np.ndarray, params) -> tuple:
    """``xel`` as a mesh of disjoint elements, swept by the replay tape and the
    generated kernel: the sources this process generated and both results."""
    n = len(xel)
    plan = get_plan(TetMesh(xel.reshape(-1, 3), np.arange(4 * n).reshape(n, 4), validate=False))
    got = [make(plan, "RSP", 16, ScenarioBatch([params])).execute(u).tobytes()
           for make in (compiled_tape, generated_kernel)]
    return list(_CODE_CACHE), got


def test_a_fresh_process_generates_identical_source_and_bytes(params):
    """Emission does not depend on the hash seed: a spawned process generates
    the parent's source and sweeps the parent's bytes, which the replay tape
    shares on a mesh of disjoint elements."""
    rng = np.random.default_rng(5)
    xel, u = rng.standard_normal((23, 4, 3)), rng.standard_normal((92, 3))
    _, (tape, gen) = _elemental(xel, u, params)
    assert tape == gen
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        sources, got = pool.apply(_elemental, (xel, u, params))
    assert sources == [generate_program("RSP", 16, ScenarioBatch([params])).source]
    assert got == [tape, gen]


def test_codegen_dump_flag_writes_source(params, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_DUMP", str(tmp_path))
    generate_program("RS", 8, ScenarioBatch([params]))
    dumped = tmp_path / "RS_vd8.py"
    assert dumped.exists()
    text = dumped.read_text()
    assert "def factory(" in text and "def setup(" in text


# -- fusion / arena accounting (TapeReport) ------------------------------------


def test_codegen_report_reflects_fusion(params):
    one = ScenarioBatch([params])
    gen = generate_program("B", 64, one)
    replay = record_program("B", one)
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
    program = generate_program("RS", 32, ScenarioBatch([params]))
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
