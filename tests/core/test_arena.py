"""Lane memory has one owner, and the kernel bound to it is one kernel.

``repro.core.arena`` promises that every buffer a kernel computes in or
binds starts on a cache line, that one constant sizes every chunk, and
that neither placement nor chunk boundaries can change a bit of the
result.  An unaligned buffer is a 30% slowdown nobody would see in a
correctness test, so it is asserted here, white-box, for every variant x
back end x batch size.  How many scenarios a kernel sweeps and whose
elements are arguments of that one binding: one program serves them all,
and every cell of the axis is held to one oracle by the differential
harness.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ScenarioBatch,
    UnifiedAssembler,
    arena,
    compiled_tape,
    generated_kernel,
    variant_names,
)
from repro.core.arena import (
    ALIGNMENT,
    ARENA_BUDGET_BYTES,
    aligned_empty,
    budget_chunk_groups,
)
from repro.fem import box_tet_mesh, get_plan
from repro.obs.profiler import TapeProfiler
from repro.physics import AssemblyParams
from tests.conftest import installed_telemetry
from tests.core.test_batch import forcing_batch
from tests.core.test_differential import corner, have_cc

VD = 16
PARAMS = AssemblyParams(body_force=(0.05, -0.1, 0.2))
ONE = ScenarioBatch([PARAMS])  # a solo sweep's batch


def _aligned(a: np.ndarray) -> bool:
    return a.ctypes.data % ALIGNMENT == 0


# -- the allocator -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.integers(0, 300),
        st.lists(st.integers(0, 9), min_size=1, max_size=3).map(tuple),
    ),
    dtype=st.sampled_from([np.float64, np.bool_, np.int64]),
)
def test_aligned_empty_contract(shape, dtype):
    a = aligned_empty(shape, dtype)
    want = (shape,) if isinstance(shape, int) else shape
    assert a.shape == want and a.dtype == np.dtype(dtype)
    assert _aligned(a)
    assert a.flags.c_contiguous and a.flags.writeable
    # the view is the only reference to its over-allocated parent
    gc.collect()
    a[...] = 1
    assert (a == 1).all()


def test_default_dtype_and_the_single_budget():
    assert aligned_empty(3).dtype == np.float64
    assert ARENA_BUDGET_BYTES == 2 << 20
    # largest chunk that fits, clamped to [1, ngroups]
    assert budget_chunk_groups(1024, 16, 10**6) == (2 << 20) // (1024 * 16)
    assert budget_chunk_groups(1024, 16, 5) == 5
    assert budget_chunk_groups(10**9, 16, 5) == 1


# -- every executor: placement, budget, chunk-size independence ----------------


def _bind(plan, variant, backend, S):
    """(kernel, sweep(chunk_groups) -> rhs) for one cell of the matrix."""
    rng = np.random.default_rng(7)
    u = 0.1 * rng.standard_normal((plan.mesh.nnode, 3))
    make = compiled_tape if backend == "replay" else generated_kernel
    batch = forcing_batch(S) if S > 1 else ONE
    kern = make(plan, variant, VD, batch)
    return kern, lambda cg: kern.execute_chunked(
        u, num_threads=1, chunk_groups=cg, param_rows=batch.param_rows()
    )


def _lane_arrays(kern, cg):
    """Every array the chunks of a ``cg``-group sweep compute in, read
    lanes from or write to (gather *sources* are node-indexed columns)."""
    if hasattr(kern, "_closure_cache"):  # CompiledTape: prebound op tuples
        for ops, _ in kern._closures(cg, 1)[0]:
            for op in ops:
                for a in op[2 if op[0] in (3, 4) else 1:]:
                    if isinstance(a, np.ndarray):
                        yield a
        return
    for task in kern._python_tasks(cg, 1):  # generated: closure cells
        for closure in task.args[0]:
            cells = zip(closure.__code__.co_freevars, closure.__closure__)
            for name, cell in cells:
                if not name.startswith("vc"):
                    yield cell.cell_contents


@pytest.fixture(scope="module")
def plan():
    # 30 groups of 16: not a multiple of the 7-group chunk below
    return get_plan(box_tet_mesh(4, 4, 5))


@pytest.mark.parametrize("S", [1, 4, 16])
@pytest.mark.parametrize("backend", ["replay", "codegen"])
@pytest.mark.parametrize("variant", variant_names())
def test_every_executor_is_aligned_budgeted_and_chunk_independent(
    plan, monkeypatch, variant, backend, S
):
    kern, sweep = _bind(plan, variant, backend, S)
    assert kern.ngroups == 30
    # seven groups' worth of this kernel's rows (and a bit): the one
    # budget rule must answer 7, leaving a partial last chunk of 2
    group_bytes = kern._lane_bytes * VD
    monkeypatch.setattr(arena, "ARENA_BUDGET_BYTES", 7 * group_bytes + 5)
    cg = kern._resolve_cg(None, 2)
    assert cg == 7
    assert cg * group_bytes <= arena.ARENA_BUDGET_BYTES < (cg + 1) * group_bytes
    # ... except one thread replaying a program without (S, lanes) rows,
    # where a chunk is only another dispatch per op: the whole mesh
    whole = backend == "replay" and S == 1
    assert kern._resolve_cg(None, 1) == (kern.ngroups if whole else cg)

    for chunk in (1, cg, kern.ngroups):
        arrays = list(_lane_arrays(kern, chunk))
        assert len(arrays) > 10
        assert all(_aligned(a) for a in arrays)

    default = sweep(None)
    assert np.isfinite(default).all() and np.abs(default).max() > 0
    for chunk in (1, cg, kern.ngroups):
        assert np.array_equal(sweep(chunk), default)


def test_real_budget_bounds_the_benchmark_shaped_kernels():
    """With the real constant: the arena fits it, one more group would
    not, and the sweep needs more than one chunk."""
    plan = get_plan(box_tet_mesh(10, 10, 10))  # 375 groups > one B chunk
    for batch in (ONE, forcing_batch(16)):
        kern = generated_kernel(plan, "B", VD, batch)
        cg = kern._resolve_cg(None, 1)
        group_bytes = kern._lane_bytes * VD
        assert 1 < cg < kern.ngroups
        assert cg * group_bytes <= ARENA_BUDGET_BYTES < (cg + 1) * group_bytes


# -- one lock per bound kernel ----------------------------------------------------


@pytest.mark.parametrize("backend", ["replay", "codegen", "native"])
def test_concurrent_callers_of_one_cached_kernel_take_turns(plan, backend, request):
    """More threads than cores hammer the two plan-cached kernels of a
    mesh, each with its own velocity and forcing values; every caller
    gets exactly its serial answer (a lost buffer update would not), and
    the one profiled caller's profile counts exactly its own sweeps.
    ``native``: the generated kernels' C form adopted, so the shared state
    is the accumulator each sweep scatters into."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    make = compiled_tape if backend == "replay" else generated_kernel
    if backend == "native":  # kernels of its own: adoption is for good
        request.getfixturevalue("cc")
        plan = get_plan(box_tet_mesh(4, 4, 5))
    serial = make(plan, "RS", VD, ONE)
    batched = make(plan, "RS", VD, forcing_batch(4))
    rng = np.random.default_rng(3)
    fields = [0.1 * rng.standard_normal((plan.mesh.nnode, 3)) for _ in range(6)]
    rows = [{"force_z": np.full((4, 1), 0.01 * (i + 1))} for i in range(6)]
    profiler = TapeProfiler()

    def call(i):
        mine = profiler if i == 0 else None
        return (
            serial.execute(fields[i], profiler=mine),
            batched.execute(fields[i], param_rows=rows[i], profiler=mine),
        )

    want = [call(i) for i in range(6)]
    if backend == "native":
        assert serial.build_native(wait=True) and batched.build_native(wait=True)
        assert all(np.array_equal(a, b) for a, b in zip(call(1), want[1]))
        assert serial._acc is not None and batched._acc is not None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(call, list(range(6)) * 5, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 30
    for k, (one, many) in enumerate(got):
        assert np.array_equal(one, want[k % 6][0])
        assert np.array_equal(many, want[k % 6][1])
    # caller 0 swept each kernel once before the storm and five times in it
    assert sorted(p.executions for p in profiler.profiles.values()) == [6, 6]


# -- one program, one kernel: the binding axis -------------------------------------

#: every binding of every back end against the interpreted oracle: rows of
#: the differential harness (tests/core/test_differential.py)
test_one_kernel_serves_every_binding_to_the_byte = corner(
    "test_one_kernel_serves_every_binding_to_the_byte")


@pytest.mark.parametrize("mode", ["compiled", "codegen"])
def test_one_configuration_binds_one_kernel(mode):
    """A solo sweep is the one-scenario batch: ``assemble``, ``run_batch``,
    the solver's kernel assembler and a one-scenario campaign step sweep the
    one kernel of the configuration -- compiled once and, with a compiler,
    adopted once -- and agree with the interpreter to the byte."""
    from repro.physics.fractional_step import BatchCampaign, FractionalStepSolver
    from repro.physics.momentum import kernel_rhs_assembler

    mesh = box_tet_mesh(3, 3, 3)  # a plan of its own: nothing bound yet
    u = 0.1 * np.random.default_rng(11).standard_normal((mesh.nnode, 3))
    want = UnifiedAssembler(mesh, PARAMS).assemble("RSP", u).tobytes()
    store = "tape" if mode == "compiled" else "codegen"

    def sweeps():
        asm = UnifiedAssembler(mesh, PARAMS, mode=mode)
        kra = kernel_rhs_assembler(mesh, PARAMS, "RSP", mode)
        solo = FractionalStepSolver(mesh, PARAMS, assemble=kra)
        campaign = BatchCampaign(mesh, [PARAMS], variant="RSP", mode=mode)
        solo.set_velocity(u)
        campaign.set_velocities(u)
        solo.advance(1e-3)
        campaign.advance(1e-3)
        rhs = [asm.assemble("RSP", u), asm.run_batch("RSP", [PARAMS], u)[0], kra(mesh, u, PARAMS)]
        assert [r.tobytes() for r in rhs] == [want] * 3
        assert campaign.velocities()[0].tobytes() == solo.velocity.tobytes()
        return solo.velocity.tobytes()

    with installed_telemetry() as (tracer, registry):
        stepped = sweeps()
        if mode == "codegen" and have_cc():
            assert generated_kernel(get_plan(mesh), "RSP", VD, ONE).build_native(wait=True)
            assert sweeps() == stepped
            assert registry.counter("codegen.native_adopted").value == 1
    assert registry.counter(f"{store}.compiles").value == 1
    compiles = [sp.name for sp in tracer.finished if sp.name.startswith(f"{store}.compile")]
    assert compiles == [f"{store}.compile"]
