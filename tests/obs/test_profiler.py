"""Op-level tape profiler: bit-identity, byte attribution, exports.

The two acceptance criteria of the profiler live here: profiled
assemblies must be **bitwise identical** to unprofiled ones across every
variant (hypothesis property test), and the measured per-op bytes must
agree with the :class:`~repro.core.tape.TapeReport` predicted traffic
within the stated tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UnifiedAssembler, compiled_tape, generated_kernel, variant_names
from repro.fem import box_tet_mesh, get_plan
from repro.obs import (
    MetricsRegistry,
    NullProfiler,
    TapeProfile,
    TapeProfiler,
    Tracer,
    op_costs_from_program,
    profile_trace_events,
    write_flamegraph,
)
from repro.physics import AssemblyParams

#: predicted_bytes() is an all-vector upper bound; constant folding turns
#: some operands into scalars, measured ~9-11% below prediction on the
#: real variants.  15% is the stated acceptance tolerance.
BYTE_RESIDUAL_TOLERANCE = 0.15


@pytest.fixture(scope="module")
def mesh():
    return box_tet_mesh(4, 4, 4)


@pytest.fixture(scope="module")
def prof_params():
    return AssemblyParams(body_force=(0.0, 0.0, 0.1))


@pytest.fixture(scope="module")
def prof_velocity(mesh):
    rng = np.random.default_rng(7)
    return 0.1 * rng.standard_normal((mesh.nnode, 3))


def _assemble(mesh, params, velocity, variant, vector_dim, **kw):
    asm = UnifiedAssembler(mesh, params, vector_dim=vector_dim, **kw)
    return asm.assemble(variant, velocity)


# ---------------------------------------------------------------------------
# Acceptance: bit-identity of profiled assemblies
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    variant=st.sampled_from(variant_names()),
    vector_dim=st.sampled_from([16, 64]),
    seed=st.integers(min_value=0, max_value=4),
)
def test_profiled_assembly_bitwise_identical(variant, vector_dim, seed):
    """Profiling on must never change a single bit of the result."""
    mesh = box_tet_mesh(3, 3, 3)
    params = AssemblyParams(body_force=(0.05, -0.1, 0.2))
    rng = np.random.default_rng(seed)
    velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))

    ref = _assemble(mesh, params, velocity, variant, vector_dim,
                    mode="compiled")
    out = _assemble(
        mesh, params, velocity, variant, vector_dim, mode="compiled",
        profile=True,
    )
    assert np.array_equal(ref, out), (
        f"{variant}@vd{vector_dim}: profiled RHS differs"
    )


def test_interpreted_profile_is_rejected(mesh, prof_params):
    """Op-level counters come from a program's cost table: the interpreted
    per-group backend has none, so asking it to profile is an error."""
    with pytest.raises(ValueError, match="profile=True requires"):
        UnifiedAssembler(mesh, prof_params, mode="interpreted", profile=True)


def test_profiled_threads_bitwise_identical(mesh, prof_params, prof_velocity):
    ref = _assemble(
        mesh, prof_params, prof_velocity, "RSP", 32,
        mode="compiled", executor="threads", num_threads=2,
    )
    profiler = TapeProfiler()
    out = _assemble(
        mesh, prof_params, prof_velocity, "RSP", 32,
        mode="compiled", executor="threads", num_threads=2,
        profiler=profiler,
    )
    assert np.array_equal(ref, out)
    vd = 32
    prof = profiler.profiles[("RSP", vd, "compiled", "threads")]
    assert prof.executions == 1
    assert prof.total_seconds > 0


# ---------------------------------------------------------------------------
# Acceptance: measured vs predicted byte traffic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["RS", "RSP"])
def test_measured_bytes_match_predicted(
    mesh, prof_params, prof_velocity, variant
):
    """Profiled per-op bytes agree with TapeReport.predicted_bytes within
    the stated tolerance (prediction is an all-vector upper bound)."""
    profiler = TapeProfiler()
    _assemble(
        mesh, prof_params, prof_velocity, variant, 64, mode="compiled",
        profiler=profiler,
    )
    prof = profiler.profiles[(variant, 64, "compiled", "serial")]
    assert prof.report is not None and prof.executions == 1
    nlane = prof.lanes[0] / prof.executions
    predicted = prof.report.predicted_bytes(nlane)
    measured = prof.total_bytes
    assert measured <= predicted, "measured exceeds the all-vector bound"
    residual = (predicted - measured) / predicted
    assert residual < BYTE_RESIDUAL_TOLERANCE, (
        f"{variant}: byte residual {residual:.3f} exceeds "
        f"{BYTE_RESIDUAL_TOLERANCE}"
    )
    # flops match exactly: every live arithmetic op costs 1 Flop/lane
    assert prof.total_flops == pytest.approx(
        prof.report.predicted_flops(nlane)
    )


# ---------------------------------------------------------------------------
# Op cost table
# ---------------------------------------------------------------------------


def test_op_costs_from_program(mesh, prof_params):
    tape = compiled_tape(
        get_plan(mesh), "RSP", 32,
        kernel_params=prof_params.as_kernel_params(),
    )
    costs = op_costs_from_program(tape.program)
    assert len(costs) == len(tape.program.ops)
    kinds = {kind for kind, *_ in costs}
    assert kinds <= {"bin", "un", "sel", "gather", "scatter"}
    for kind, label, rb, wb, fl in costs:
        assert wb > 0  # every op writes its output
        assert rb >= 0 and fl >= 0
        assert label
    # report op counts agree with the cost table's kinds
    r = tape.report
    assert sum(1 for k, *_ in costs if k == "bin") == r.binary_ops
    assert sum(1 for k, *_ in costs if k == "un") == r.unary_ops
    assert sum(1 for k, *_ in costs if k == "sel") == r.select_ops
    assert sum(1 for k, *_ in costs if k == "gather") == r.gather_ops
    assert sum(1 for k, *_ in costs if k == "scatter") == r.scatter_calls


# ---------------------------------------------------------------------------
# Zero-cost-off contract
# ---------------------------------------------------------------------------


def test_unprofiled_assembler_records_nothing(mesh, prof_params, prof_velocity):
    """Kernels are plan-cached and shared; a caller's profiler and tracer
    travel with each call: a later unprofiled assembler inherits nothing,
    nor do two callers that interleave lookup - lookup - sweep - sweep."""
    profiler = TapeProfiler()
    _assemble(mesh, prof_params, prof_velocity, "RS", 16,
              mode="compiled", profiler=profiler)
    prof = profiler.profiles[("RS", 16, "compiled", "serial")]
    # same mesh + variant + vector_dim -> same cached tape, no profiler
    _assemble(mesh, prof_params, prof_velocity, "RS", 16, mode="compiled")
    assert prof.executions == 1
    for make in (compiled_tape, generated_kernel):
        profiler, tracer = TapeProfiler(), Tracer()
        lookup = (get_plan(mesh), "RS", 16, None, prof_params.as_kernel_params())
        mine, theirs = make(*lookup), make(*lookup)
        assert mine is theirs
        mine.execute(prof_velocity, tracer=tracer, profiler=profiler)
        theirs.execute(prof_velocity)
        assert [p.executions for p in profiler.profiles.values()] == [1]
        assert [s.name for s in tracer.finished].count(mine._span) == 1


def test_null_profiler_contract():
    null = NullProfiler()
    assert not null.enabled
    assert null.snapshot() == []
    assert null.collapsed() == {}
    null.merge([])  # no-op
    null.publish(MetricsRegistry())  # no-op
    with pytest.raises(RuntimeError):
        null.for_program(None, 8, "compiled")


# ---------------------------------------------------------------------------
# Merge / snapshot / publish (the cross-process reduction)
# ---------------------------------------------------------------------------


def _toy_profile(executions=1, executor="serial"):
    prof = TapeProfile(
        "RS", 8, "compiled", executor,
        op_costs=[("bin", "multiply", 16.0, 8.0, 1.0),
                  ("scatter", "rhs[0,0]", 8.0, 8.0, 0.0)],
    )
    for _ in range(executions):
        prof.record(0, 0.5, 8)
        prof.record(1, 0.25, 8)
        prof.record_flush(0.125, 64.0)
        prof.finish_execution()
    return prof


def test_profile_snapshot_roundtrip_and_merge():
    a = _toy_profile(executions=2)
    b = TapeProfile.from_dict(a.to_dict())
    assert b.key() == a.key()
    assert b.total_seconds == a.total_seconds
    assert b.total_bytes == a.total_bytes
    b.merge(a)
    assert b.executions == 4
    assert b.total_bytes == 2 * a.total_bytes
    assert b.flush_bytes == 2 * a.flush_bytes


def test_profile_merge_rejects_different_tapes():
    a = _toy_profile()
    other = TapeProfile(
        "RSP", 8, "compiled",
        op_costs=[("un", "negative", 8.0, 8.0, 1.0)],
    )
    with pytest.raises(ValueError, match="different tapes"):
        a.merge(other)


def test_profiler_merge_folds_worker_snapshots():
    parent = TapeProfiler()
    workers = [TapeProfiler() for _ in range(3)]
    for w in workers:
        prof = w._get(("RS", 8, "compiled", "worker"), _toy_profile)
        assert prof.executions == 1
        parent.merge(w.snapshot())
    merged = parent.profiles[("RS", 8, "compiled", "serial")]
    assert merged.executions == 3
    assert merged.calls[0] == 3


def test_publish_counters_and_phases():
    registry = MetricsRegistry()
    profiler = TapeProfiler()
    profiler._get(("RS", 8, "compiled", "serial"), _toy_profile)
    profiler.publish(registry)
    snap = registry.snapshot()
    assert snap["profile.executions.RS.compiled"]["value"] == 1
    assert snap["profile.seconds.RS.compiled"]["value"] == pytest.approx(0.875)
    # bytes include the flush traffic
    assert snap["profile.bytes.RS.compiled"]["value"] == pytest.approx(
        8 * 24.0 + 8 * 16.0 + 64.0
    )
    assert "profile.phase_seconds.RS.compiled.compute" in snap
    assert "profile.phase_seconds.RS.compiled.flush" in snap


# ---------------------------------------------------------------------------
# Phases, exports
# ---------------------------------------------------------------------------


def test_phase_breakdown_orders_and_sums(mesh, prof_params, prof_velocity):
    profiler = TapeProfiler()
    _assemble(mesh, prof_params, prof_velocity, "RSPR", 64,
              mode="compiled", profiler=profiler)
    prof = profiler.profiles[("RSPR", 64, "compiled", "serial")]
    phases = prof.phases()
    assert set(phases) <= {"gather", "compute", "select", "store",
                           "scatter", "flush"}
    assert "gather" in phases and "compute" in phases and "flush" in phases
    assert sum(p["seconds"] for p in phases.values()) == pytest.approx(
        prof.total_seconds
    )
    op_phase_bytes = sum(
        p["bytes"] for name, p in phases.items() if name != "flush"
    )
    assert op_phase_bytes == pytest.approx(prof.total_bytes)
    rows = prof.op_rows(top=5)
    assert len(rows) == 5
    assert rows[0]["seconds"] >= rows[-1]["seconds"]


def test_collapsed_flamegraph_and_trace(tmp_path, mesh, prof_params,
                                        prof_velocity):
    profiler = TapeProfiler()
    _assemble(mesh, prof_params, prof_velocity, "RS", 64,
              mode="compiled", profiler=profiler)
    collapsed = profiler.collapsed()
    assert collapsed
    for stack, usec in collapsed.items():
        assert stack.startswith("tape;RS@vd64[compiled];")
        assert usec >= 1 and isinstance(usec, int)

    path = tmp_path / "flame.txt"
    lines = write_flamegraph(collapsed, str(path))
    assert lines == len([u for u in collapsed.values() if u > 0])
    body = path.read_text()
    for line in body.splitlines():
        stack, weight = line.rsplit(" ", 1)
        assert int(weight) > 0 and ";" in stack

    events = profile_trace_events(profiler.snapshot())
    names = {e["name"] for e in events if e.get("ph") == "X"}
    assert any("#0" in n for n in names)
    assert all(e["dur"] >= 0 for e in events if e.get("ph") == "X")
