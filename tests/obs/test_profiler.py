"""Op-level tape profiler: bit-identity, byte attribution, exports.

The two acceptance criteria of the profiler live here: profiled
assemblies must be **bitwise identical** to unprofiled ones across every
variant (rows of the differential harness, ``tests/core/test_differential.py``),
and the measured per-op bytes must
agree with the :class:`~repro.core.tape.TapeReport` predicted traffic
within the stated tolerance.
"""

import numpy as np
import pytest

from repro.core import ScenarioBatch, UnifiedAssembler, compiled_tape, generated_kernel
from repro.fem import box_tet_mesh, get_plan
from repro.obs import (
    NullProfiler,
    TapeProfiler,
    op_costs_from_program,
    profile_trace_events,
    write_flamegraph,
)
from repro.physics import AssemblyParams
from tests.conftest import installed_telemetry
from tests.core.test_differential import corner

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


test_profiled_assembly_bitwise_identical = corner("test_profiled_assembly_bitwise_identical")


def test_interpreted_profile_is_rejected(mesh, prof_params):
    """Op-level counters come from a program's cost table: the interpreted
    per-group backend has none, so asking it to profile is an error."""
    with pytest.raises(ValueError, match="profile=True requires"):
        UnifiedAssembler(mesh, prof_params, mode="interpreted", profile=True)


test_profiled_threads_bitwise_identical = corner("test_profiled_threads_bitwise_identical")


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
    tape = compiled_tape(get_plan(mesh), "RSP", 32, ScenarioBatch([prof_params]))
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
    """Kernels are plan-cached and shared; a caller's profiler travels with
    each call and its span goes to the tracer installed at the call: a later
    unprofiled assembler inherits nothing, nor do two callers that
    interleave lookup - lookup - sweep - sweep."""
    profiler = TapeProfiler()
    _assemble(mesh, prof_params, prof_velocity, "RS", 16,
              mode="compiled", profiler=profiler)
    prof = profiler.profiles[("RS", 16, "compiled", "serial")]
    # same mesh + variant + vector_dim -> same cached tape, no profiler
    _assemble(mesh, prof_params, prof_velocity, "RS", 16, mode="compiled")
    assert prof.executions == 1
    for make in (compiled_tape, generated_kernel):
        profiler = TapeProfiler()
        lookup = (get_plan(mesh), "RS", 16, ScenarioBatch([prof_params]))
        mine, theirs = make(*lookup), make(*lookup)
        assert mine is theirs
        with installed_telemetry() as (tracer, _):
            mine.execute(prof_velocity, profiler=profiler)
        theirs.execute(prof_velocity)
        assert [p.executions for p in profiler.profiles.values()] == [1]
        assert [s.name for s in tracer.finished].count(mine._span) == 1


def test_null_profiler_contract():
    null = NullProfiler()
    assert not null.enabled
    assert null.snapshot() == []
    assert null.collapsed() == {}
    with pytest.raises(RuntimeError):
        null.for_program(None, 8, "compiled")


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
