"""Telemetry of the hot paths, read back from the one installed tracer and
registry: study, CG, fractional step."""

import json

import numpy as np
import pytest

from repro.fem import box_tet_mesh
from repro.obs import write_chrome_trace
from repro.physics import AssemblyParams
from repro.physics.fractional_step import FractionalStepSolver
from repro.solvers import SolverError, conjugate_gradient


@pytest.fixture(scope="module")
def tiny_mesh():
    return box_tet_mesh(4, 4, 4)


@pytest.fixture(scope="module")
def params():
    return AssemblyParams(body_force=(0.0, 0.0, 0.1))


# ---------------------------------------------------------------------------
# OptimizationStudy (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_study_traced_chrome_trace(traced_study, tmp_path):
    _, _, _, tracer, registry = traced_study

    # chrome trace: valid JSON with nested spans for every variant
    trace_path = tmp_path / "trace.json"
    write_chrome_trace(tracer.finished, str(trace_path))
    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    assert events and all(ev["ph"] == "X" for ev in events)
    assert {"gpu_table", "cpu_table"} <= {ev["name"] for ev in events}
    variant_events = [ev for ev in events if ev["name"] == "variant"]
    assert {ev["args"]["variant"] for ev in variant_events} == {
        "B", "P", "RS", "RSP", "RSPR",
    }
    # nesting: each gpu_model span lies inside some variant span
    spans = {s.span_id: s for s in tracer.finished}
    model_spans = [s for s in tracer.finished if s.name == "gpu_model"]
    assert model_spans
    for s in model_spans:
        assert spans[s.parent_id].name == "variant"

    # registry carries the model runtimes
    snap = registry.snapshot()
    assert snap["study.gpu_runtime_ms.RSPR"]["value"] > 0
    assert snap["study.cpu_runtime_ms.B"]["value"] > 0


def test_study_null_tracer_outputs_identical(study, gpu_table, cpu_table, traced_study):
    _, traced_gpu, traced_cpu, _, _ = traced_study
    assert study.format_gpu_table(list(gpu_table.values())) == study.format_gpu_table(
        traced_gpu
    )
    assert study.format_cpu_table(list(cpu_table.values())) == study.format_cpu_table(
        traced_cpu
    )


# ---------------------------------------------------------------------------
# CG
# ---------------------------------------------------------------------------


def test_cg_records_metrics_and_span(telemetry):
    a = np.diag([1.0, 2.0, 3.0])
    b = np.array([1.0, 1.0, 1.0])
    tracer, registry = telemetry
    result = conjugate_gradient(a, b)
    assert result.converged

    snap = registry.snapshot()
    assert snap["cg.solves"]["value"] == 1
    assert snap["cg.iterations"]["value"] == result.iterations
    assert snap["cg.solve_iterations"]["count"] == 1
    (span,) = [s for s in tracer.finished if s.name == "cg_solve"]
    assert span.attributes["converged"] is True
    assert span.attributes["iterations"] == result.iterations


def test_solver_error_structured_context(telemetry):
    # force failure via a tiny iteration budget on a random SPD system
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 40))
    a = m @ m.T + 40 * np.eye(40)
    b = rng.standard_normal(40)
    _, registry = telemetry
    with pytest.raises(SolverError) as exc_info:
        conjugate_gradient(a, b, tol=1e-14, maxiter=2, raise_on_fail=True)
    err = exc_info.value
    assert err.iterations == 2
    assert err.residual_norm > 0
    assert len(err.residual_history) == 3  # initial + 2 iterations
    assert err.target is not None
    ctx = err.context()
    assert ctx["iterations"] == 2
    assert ctx["residual_history"] == err.residual_history[-32:]
    assert registry.snapshot()["cg.failures"]["value"] == 1


# ---------------------------------------------------------------------------
# Fractional step
# ---------------------------------------------------------------------------


def test_fractional_step_stage_spans_and_metrics(tiny_mesh, params, telemetry):
    tracer, registry = telemetry
    solver = FractionalStepSolver(tiny_mesh, params)
    rng = np.random.default_rng(1)
    solver.set_velocity(0.05 * rng.standard_normal((tiny_mesh.nnode, 3)))
    solver.run(steps=2, dt=1e-3)

    spans = tracer.finished
    steps = [s for s in spans if s.name == "step"]
    assert len(steps) == 2
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent_id, []).append(s.name)
    for step in steps:
        assert {"momentum", "pressure", "projection"} <= set(
            by_parent[step.span_id]
        )

    snap = registry.snapshot()
    assert snap["fstep.steps"]["value"] == 2
    assert snap["fstep.assemblies"]["value"] == 6  # 3 RK sweeps per step
    assert snap["fstep.pressure_iterations"]["count"] == 2


def test_one_step_lands_in_one_sink(params, telemetry):
    """Every phase of a step -- the solver's stages, the kernel's and the
    plan's builds, the pressure solve -- in the one installed tracer and
    registry."""
    tracer, registry = telemetry
    mesh = box_tet_mesh(4, 4, 4)  # a fresh mesh: its plan and kernel are built here
    solver = FractionalStepSolver(mesh, params, assemble="codegen:RSP")
    solver.set_velocity(0.05 * np.random.default_rng(1).standard_normal((mesh.nnode, 3)))
    solver.run(steps=2, dt=1e-3)
    assert {"step", "momentum", "assemble", "codegen.execute", "pressure", "cg_solve",
            "projection", "plan.build", "codegen.compile"} <= {s.name for s in tracer.finished}
    assert {"fstep.steps", "cg.solves", "codegen.executions", "plan.builds"} <= set(
        registry.snapshot())

