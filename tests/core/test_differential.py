"""Same answer, different cost: every assembly cell against one oracle.

A cell is one way of running a kernel variant over a mesh: the back end
(replayed tape, generated Python, its C form, or the interpreter itself),
the executor and chunking, a generated kernel's group ranges, the scenario
batch (every bound kernel carries one: a solo sweep is the ``S = 1``
batch), profiling, a mesh of disjoint elements, the entry (kernel or
``UnifiedAssembler``), a non-zero ``rhs`` on entry and the field.  Every
cell's ``.tobytes()`` equals ``mode="interpreted"`` at the same
``vector_dim``: one assembly per (variant, mesh, vd, scenario, field),
cached for the session, a batch stacking its scenarios'.  The
interpreted oracle itself equals the seed's per-call ``np.add.at`` path
(:func:`seed_reference`).

One strategy draws the cells (``derandomize=True``: the same examples every
run) after the cells of :data:`EXAMPLES`, which planted defects were caught
by.  The per-file identity tests the harness replaced keep their ids as
rows of :data:`CORNERS`: each id is bound in its old module by
:func:`corner` and runs its cells through the same :func:`check`.
"""

import dataclasses
import functools
import os
import weakref
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ScenarioBatch, UnifiedAssembler, compiled_tape, generated_kernel
from repro.core import native, variant_names
from repro.core.codegen import GeneratedKernel, generate_program
from repro.core.dsl import KernelContext, NumpyBackend
from repro.core.variants import get_variant
from repro.fem import TetMesh, box_tet_mesh, get_plan, perturbed_box_mesh
from repro.fem.packing import ElementPacking
from repro.obs import TapeProfiler
from repro.obs.metrics import get_registry
from repro.physics import AssemblyParams
from tests.conftest import installed_telemetry

VARIANTS = tuple(variant_names())
PARAMS = AssemblyParams(body_force=(0.05, -0.1, 0.2))
#: 162 elements (box, jittered) and 299 (disjoint): every size pads
VDS = (7, 8, 16, 33, 64, 100, 1024)
MESHES = ("box", "jittered", "disjoint")
BACKENDS = ("replay", "codegen", "native")
BATCHES = ("none", "one", "shared4", "shared16", "per_scenario")


@dataclasses.dataclass(frozen=True)
class Cell:
    variant: str
    backend: str = "replay"  # compiled tape | generated Python | its C form | interpreted
    mesh: str = "box"  # disjoint: 299 elements sharing no node, one lane per bin
    vd: int = 16
    threads: int = 0  # 0: execute(); n: execute_chunked(num_threads=n)
    chunk_groups: Optional[int] = None
    ranges: object = 1  # generated: k even group ranges, or a tuple's interior cuts
    batch: str = "one"  # "none": UnifiedAssembler.assemble (the assembler entry only)
    profile: bool = False
    field: str = "wide"  # plain: 0.1 N(0, 1); wide: magnitudes 1e-8 .. 1e8; nan: wide + a NaN
    entry: str = "kernel"  # or through UnifiedAssembler.assemble / run_batch


# -- the cell's inputs ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _mesh(kind: str, family: str) -> TetMesh:
    """Meshes per ``family``: a generated kernel is plan-cached, so the
    Python-form cells bind on meshes the C form never adopted on."""
    if kind == "disjoint":
        xel = get_plan(box_tet_mesh(8, 8, 8)).packed_coords()[:299]
        return TetMesh(xel.reshape(-1, 3), np.arange(4 * 299).reshape(-1, 4),
                       validate=False)
    if kind == "jittered":
        return perturbed_box_mesh(3, 3, 3, amplitude=0.1, seed=3)
    return box_tet_mesh(3, 3, 3)


def _scenario(variant: str, s: int) -> AssemblyParams:
    """Scenario ``s`` of every batch; scenario 0 is :data:`PARAMS`.  The
    forcing varies; so do density and viscosity for the baseline kernels,
    which read them at run time."""
    material = variant in ("B", "P")
    return dataclasses.replace(
        PARAMS, body_force=(0.05, -0.1, 0.2 * (s + 1)),
        density=1.0 + 0.1 * s * material, viscosity=1e-3 * (1 + s * material))


def _size(kind: str) -> int:
    return {"none": 0, "one": 1, "shared16": 16}.get(kind, 4)


def _batch(variant: str, kind: str):
    if kind == "none":
        return None
    return ScenarioBatch([_scenario(variant, s) for s in range(_size(kind))])


def _field(shape, kind: str, seed: int = 3) -> np.ndarray:
    """Both zeros, which only ``tobytes`` tells apart; ``wide`` sums are
    order sensitive: adding a bin's contributions in another order flips
    low bits somewhere, and its NaN's payload is the first operand's."""
    rng = np.random.default_rng(seed)
    u = 0.1 * rng.standard_normal(shape)
    if kind != "plain":
        u = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        u[..., 1, 0] = np.nan if kind == "nan" else u[..., 1, 0]
    u[..., ::7, :] = 0.0
    u[..., 3::11, 1] = -0.0
    return u


def _velocity(cell: Cell, mesh: TetMesh) -> np.ndarray:
    """Scenario ``s`` of a per-scenario field is field seed ``3 + s``."""
    if cell.batch == "per_scenario":
        return np.stack([_field((mesh.nnode, 3), cell.field, 3 + s) for s in range(4)])
    return _field((mesh.nnode, 3), cell.field)


# -- the oracle ----------------------------------------------------------------


def seed_reference(mesh, params, variant, velocity, vector_dim):
    """The seed path: every packed group through :class:`NumpyBackend` with
    no accumulator, i.e. one ``np.add.at`` per scatter call."""
    rhs = np.zeros((mesh.nnode, 3))
    kernel = get_variant(variant).kernel
    for group in ElementPacking(mesh, vector_dim=vector_dim):
        ctx = KernelContext(
            connectivity=group.connectivity, coords=mesh.coords,
            fields={"velocity": velocity}, rhs=rhs, params=params.as_kernel_params(),
            active=None if group.nactive == group.vector_dim else group.active)
        kernel(NumpyBackend(ctx), ctx)
    return rhs


@functools.lru_cache(maxsize=None)
def _interpreted(variant, mesh_kind, vd, s, field, field_seed) -> np.ndarray:
    """``mode="interpreted"`` for scenario ``s`` (every batch shares it)."""
    mesh = _mesh(mesh_kind, "oracle")
    u = _field((mesh.nnode, 3), field, field_seed)
    params = _scenario(variant, s)
    want = UnifiedAssembler(mesh, params, vector_dim=vd).assemble(variant, u)
    assert np.isfinite(want).all() == (field != "nan")
    if s == 0:
        assert seed_reference(mesh, params, variant, u, vd).tobytes() == want.tobytes()
    want.flags.writeable = False
    return want


def oracle(cell: Cell) -> np.ndarray:
    per = cell.batch == "per_scenario"
    rows = [_interpreted(cell.variant, cell.mesh, cell.vd, s, cell.field, 3 + s * per)
            for s in range(max(_size(cell.batch), 1))]
    return rows[0] if cell.batch == "none" else np.stack(rows)


@functools.lru_cache(maxsize=None)
def have_cc() -> bool:
    """Whether ``$CC`` / ``cc`` builds and loads a shared object."""
    source = "void probe(void) {}\n"
    proc = native.build(source)
    return proc is not None and proc.wait() == 0 and native.load(source, {}) is not None


# -- one cell --------------------------------------------------------------------


def _bind(cell: Cell, mesh: TetMesh, batch):
    make = compiled_tape if cell.backend == "replay" else generated_kernel
    return make(get_plan(mesh), cell.variant, cell.vd, batch,
                "full" if cell.batch == "per_scenario" else "vec")


def _assembler(cell: Cell, mesh: TetMesh, profiler):
    return UnifiedAssembler(
        mesh, PARAMS, vector_dim=cell.vd,
        mode={"replay": "compiled", "interpreted": "interpreted"}.get(cell.backend, "codegen"),
        executor="threads" if cell.threads else "serial",
        num_threads=cell.threads or None, profiler=profiler)


#: a generated kernel's values buffer after adoption: created at most once
_VALUES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def check(cell: Cell) -> None:
    """Run ``cell`` and hold every sweep to the oracle, byte for byte."""
    want = oracle(cell)
    profiler = TapeProfiler() if cell.profile else None
    sweeps = 2 + (cell.entry == "kernel")
    # a cache key nobody built and nobody to build it keeps codegen on its Python form
    with installed_telemetry() as (tracer, _), \
            mock.patch.object(GeneratedKernel, "_range_cuts", _cuts(cell.ranges)), \
            mock.patch.dict(os.environ, {"CC": "/bin/false"} if cell.backend == "codegen" else {}):
        kern, sweep = _sweeper(cell, profiler)
        assert sweep().tobytes() == want.tobytes()
        if cell.backend == "native" and have_cc():  # without one: the Python form
            assert kern.build_native(wait=True)
            sweep(profiled=False)  # the adoption sweep: the C form as it serves
        fused = get_registry().counter("scatter.fused_sweeps")
        before = fused.value
        assert sweep().tobytes() == want.tobytes()  # the same buffers, reused
        if cell.entry == "kernel":
            entry = _field(want.shape, "wide", seed=5)
            assert sweep(entry.copy()).tobytes() == (entry + want).tobytes()
    placement = _placement(cell, kern, tracer)
    assert fused.value == before + (sweeps - 1) * (placement == "fused")
    if profiler is not None:
        (profile,) = profiler.profiles.values()
        assert profile.executions == sweeps and profile.total_seconds > 0


def _sweeper(cell: Cell, profiler):
    """``(kernel, sweep(rhs=None, profiled=True))`` of one cell."""
    mesh = _mesh(cell.mesh, ("python" if cell.backend == "codegen" else "kernel", cell.ranges))
    u = _velocity(cell, mesh)
    batch = _batch(cell.variant, cell.batch)
    if cell.entry == "assembler":  # the assembler sizes its own chunks
        assert cell.chunk_groups is None and cell.mesh != "disjoint"
        asms = {p: _assembler(cell, mesh, p) for p in {None, profiler}}
        rank = "full" if cell.batch == "per_scenario" else "vec"
        kern = None if cell.backend == "interpreted" else \
            asms[None]._kernel(cell.variant, cell.vd, batch or asms[None]._batch, rank)

        def sweep(rhs=None, profiled=True):
            asm = asms[profiler if profiled else None]
            if batch is None:
                return asm.assemble(cell.variant, u)
            return asm.run_batch(cell.variant, batch, u)
    else:
        assert batch is not None
        kern = _bind(cell, mesh, batch)
        rows = batch.param_rows()

        def sweep(rhs=None, profiled=True):
            kw = dict(param_rows=rows, profiler=profiler if profiled else None)
            if cell.threads:
                return kern.execute_chunked(u, rhs, num_threads=cell.threads,
                                            chunk_groups=cell.chunk_groups, **kw)
            return kern.execute(u, rhs, chunk_groups=cell.chunk_groups, **kw)
    return kern, sweep


def _cuts(ranges):
    """For the private hook ``GeneratedKernel._range_cuts``: cut a kernel's groups
    into ``ranges`` (k even ranges, or a tuple's interior cuts), whatever the CPUs."""
    def cuts(kern):
        n = kern.ngroups
        inner = [n * i // ranges for i in range(1, ranges)] if isinstance(ranges, int) else ranges
        return sorted({0, n, *(min(n, c) for c in inner)})
    return cuts


def _placement(cell: Cell, kern, tracer) -> Optional[str]:
    """Which form served the last sweep and where it scattered, read off the
    ``codegen.execute*`` span and held to what the cell implies: the C form
    (adopted when a compiler works) serves unless profiled, fused, over the
    cell's group ranges; the Python form defers."""
    if cell.backend in ("replay", "interpreted"):
        return None
    attrs = [s for s in tracer.finished if s.name.startswith("codegen.execute")][-1].attributes
    served = cell.backend == "native" and have_cc()
    assert (kern._native.state == "adopted") == served
    native_form = served and not cell.profile
    placement = "fused" if native_form else "deferred"
    assert (attrs["native"], attrs["scatter"]) == (native_form, placement)
    if native_form:
        assert (attrs["ranges"], attrs["spill_rows"]) == (len(kern._cuts) - 1, len(kern._spill))
    if served:
        assert kern._acc.shape == (kern.S, kern.nnode + len(kern._spill), 3)
        values = kern._sv  # released at adoption, re-created by the first deferred sweep only
        assert kern not in _VALUES if values is None else (
            values.ctypes.data % 64 == 0 and _VALUES.setdefault(kern, values) is values)
    return placement


# -- the strategy ------------------------------------------------------------------


@st.composite
def cells(draw) -> Cell:
    mesh = draw(st.sampled_from(MESHES))
    entry = "kernel" if mesh == "disjoint" else draw(st.sampled_from(("kernel", "assembler")))
    # the elemental form: the kernel entry, one scenario
    batch = "one" if mesh == "disjoint" else draw(
        st.sampled_from(BATCHES[entry == "kernel":]))
    # sixteen interpreted scenarios at a narrow group cost seconds each
    vds = [vd for vd in VDS if vd >= 64 or batch != "shared16"]
    backend = draw(st.sampled_from(BACKENDS))
    # the C form's threads are its group ranges; a one-group range included
    ranges = st.sampled_from((1, 2, 3)) | st.integers(0, 9).map(lambda c: (c, c + 1))
    return Cell(
        variant=draw(st.sampled_from(VARIANTS)),
        backend=backend,
        mesh=mesh,
        vd=draw(st.sampled_from(vds)),
        threads=0 if backend == "native" else draw(st.sampled_from((0, 1, 2, 3))),
        chunk_groups=None if entry == "assembler" else draw(st.sampled_from((None, 1, 2, 5))),
        ranges=1 if backend == "replay" else draw(ranges),
        batch=batch,
        profile=draw(st.booleans()),
        field=draw(st.sampled_from(("plain", "wide", "nan"))),
        entry=entry,
    )


#: Each planted defect fails the examples marked with its letter (see
#: EXPERIMENTS.md, "One differential harness"): (a) execute_chunked reducing
#: its chunks in reverse, (b) a batched kernel reading scenario 0's parameter
#: row for all, (c) the fused C scatter visiting lanes in reverse (rejected at
#: adoption, so never adopted), (d) the interpreted accumulator flushing in
#: reverse (the seed path disagrees), (e) the interface spill replayed in
#: reverse (rejected at adoption).
EXAMPLES = [
    Cell("RSP", "codegen", field="plain"),  # d
    Cell("B", "replay", threads=2, chunk_groups=1),  # a d
    Cell("RS", "codegen", batch="shared4"),  # b d
    Cell("P", "replay", vd=64, batch="per_scenario", entry="assembler"),  # b d
    Cell("RSP", "native", vd=64, batch="shared16"),  # b c d
    Cell("RSPR", "native", mesh="disjoint", vd=8),  # one lane per bin: no order to get wrong
    Cell("RS", "replay", mesh="jittered", vd=7),  # d
    Cell("B", "native", ranges=3, batch="one"),  # c d e
    Cell("P", "native", ranges=(0, 1), batch="per_scenario"),  # b c d e
    Cell("P", "native", threads=2, profile=True, batch="none", entry="assembler"),  # c d
    Cell("RSP", "native", threads=2, chunk_groups=3, ranges=2),  # c d e
    Cell("RSP", "native", field="plain"),  # d
    Cell("RS", "interpreted", batch="per_scenario", entry="assembler"),  # d
    # run_batch hands back every row as its sweep computed it, a NaN row too
    *(Cell("B", b, batch=kind, field="nan", entry="assembler") for b, kind in (
        ("replay", "per_scenario"), ("codegen", "shared4"), ("native", "one"),
        ("interpreted", "shared4"))),
]


def _with_examples(test):
    for cell in EXAMPLES:
        test = example(cell=cell)(test)
    return test


@settings(max_examples=16)
@given(cell=cells())
@_with_examples
def test_every_cell_is_the_interpreted_oracle_to_the_byte(cell):
    check(cell)


# -- the corner table: the ids of the per-file identity tests it replaced -----------


def _cells(variants, **axes):
    return [Cell(v, **axes) for v in variants]


def _by_variant(make, variants=VARIANTS):
    return {v: make(v) for v in variants}


_THREADED = ((1, 2), (2, 3), (4, 1), (4, 5))
_BINDINGS = [dict(), dict(batch="shared4"),
             dict(batch="per_scenario"), dict(mesh="disjoint"),
             dict(vd=1024), dict(mesh="disjoint", vd=1024)]
_FORMS = {"compiled": "replay", "codegen": "codegen", "native": "native"}

#: old test id (``module::name``) -> {parametrize id or "": cells}
CORNERS = {
    "test_tape::test_compiled_bitwise_equal_all_variants": _by_variant(
        lambda v: [Cell(v, vd=100, batch="none", field="plain", entry="assembler")]),
    "test_tape::test_compiled_bitwise_equal_hypothesis": {"": [
        Cell(v, vd=vd, batch="none", field="plain", entry="assembler")
        for v, vd in zip(VARIANTS, (7, 33, 100, 64, 8))]},
    "test_tape::test_compiled_repeat_executions_stable": {"": [
        Cell("B", vd=33, batch="none", field=f, entry="assembler") for f in ("plain", "wide")]},
    "test_codegen::test_codegen_bitwise_equal_all_variants": _by_variant(
        lambda v: [Cell(v, "codegen", vd=100, batch="none", field="plain", entry="assembler")]),
    "test_codegen::test_codegen_bitwise_equal_hypothesis": {"": [
        Cell(v, "codegen", vd=vd, threads=t, chunk_groups=1 if t else None, field="plain",
             batch="one" if t else "none", entry="kernel" if t else "assembler")
        for v, vd, t in zip(VARIANTS, (7, 33, 100, 64, 8), (0, 2, 0, 2, 3))]},
    "test_rows::test_generated_replay_and_interpreted_agree_to_the_byte": {
        f"{v}-{S}": [Cell(v, b, batch=kind, field="plain") for b in ("codegen", "replay")]
        for S, kind in ((1, "one"), (4, "shared4"), (16, "shared16")) for v in VARIANTS},
    "test_arena::test_one_kernel_serves_every_binding_to_the_byte": {
        f"{v}-{form}": [Cell(v, backend, field="plain", **b) for b in _BINDINGS]
        for form, backend in _FORMS.items() for v in VARIANTS},
    "test_native::test_native_is_bitwise_the_interpreter": {
        f"{v}-{shape}": [Cell(v, "native", vd=16 + 48 * (b == "shared16"), batch=b, ranges=r,
                              field="nan")
                         for b in batches for r in (1, 2, 3)]
        for shape, batches in (("serial", ("one",)), ("shared", ("shared4", "shared16")),
                               ("per_scenario", ("per_scenario",))) for v in VARIANTS},
    "test_native::test_fused_scatter_is_bitwise_the_interpreter": {
        f"{v}-{shape}-{vd}": [Cell(v, "native", vd=vd, batch=batch)]
        for vd in (8, 16, 64, 1024)
        for shape, batch in (("serial", "one"), ("shared", "shared4"),
                             ("per_scenario", "per_scenario")) for v in VARIANTS},
    "test_plan::test_unified_plan_path_bitwise_equals_legacy": _by_variant(
        lambda v: [Cell(v, "replay", field="plain"), Cell(v, "replay", mesh="jittered")]),
    "test_plan::test_unified_plan_path_bitwise_with_padding": {
        str(vd): _cells(VARIANTS, vd=vd, field="plain") for vd in (7, 100, 4096)},
    "test_threads::test_threaded_bitwise_equals_serial": _by_variant(
        lambda v: [Cell(v, threads=t, chunk_groups=cg, field="plain") for t, cg in _THREADED],
        ("B", "RS", "RSPR")),
    "test_threads::test_threaded_runs_are_deterministic": {"": [
        Cell("RSP", threads=4, chunk_groups=2, field=f) for f in ("plain", "wide")]},
    "test_threads::test_execute_chunked_direct_matches_execute": {"": [
        Cell("RSP", threads=2, chunk_groups=cg, field="plain") for cg in (1, 2, 1000)]},
    "test_batch::test_run_batch_bitwise_matches_serial": {"": [
        Cell(v, b, vd=vd, batch=batch, threads=t, chunk_groups=1 if t else None,
             field="plain", entry="kernel" if t else "assembler")
        for v, b, vd, batch, t in (
            ("B", "replay", 7, "shared4", 2), ("P", "codegen", 100, "per_scenario", 0),
            ("RS", "replay", 33, "per_scenario", 0), ("RSP", "codegen", 16, "shared4", 2),
            ("RSPR", "codegen", 64, "per_scenario", 2))]},
    "test_batch::test_run_batch_interpreted_is_serial_reference": {"": [
        Cell("B", "interpreted", batch=kind, field="plain", entry="assembler")
        for kind in ("one", "shared4", "per_scenario")]},
    "test_profiler::test_profiled_assembly_bitwise_identical": {"": [
        Cell(v, vd=vd, profile=True, batch="none", field="plain", entry="assembler")
        for v in VARIANTS for vd in (16, 64)]},
    "test_profiler::test_profiled_threads_bitwise_identical": {"": [
        Cell("RSP", vd=32, threads=2, profile=True, batch="none", field="plain",
             entry="assembler")]},
}


def corner(name: str):
    """The test function of one :data:`CORNERS` row, to bind under its old
    name in its old module: ``test_x = corner("test_x")``."""
    (rows,) = [cells for key, cells in CORNERS.items() if key.endswith("::" + name)]

    def test(row):
        if all(cell.backend == "native" for cell in row) and not have_cc():
            pytest.skip("no working C compiler ($CC or cc)")
        for cell in row:
            check(cell)

    if list(rows) == [""]:
        return lambda: test(rows[""])
    return pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))(test)


def build_ahead() -> None:
    """Build the C form of every native cell of :data:`CORNERS` and
    :data:`EXAMPLES`, one ``cc`` at a time, in the order tier-1 reaches
    them.  ``tests/conftest.py`` runs this in a child process on the second
    core; a kernel that binds later finds its ``.so`` in the cache, or
    builds its own if it got there first."""
    rows = [(k.partition("::")[0], c) for k, t in CORNERS.items() for c in t.values()]
    cells = [c for _, row in sorted(rows + [("test_differential", EXAMPLES)],
                                    key=lambda r: r[0]) for c in row]
    keys = dict.fromkeys(
        (c.variant, c.vd, "one" if c.batch == "none" else c.batch)
        for c in cells if c.backend == "native")
    for variant, vd, kind in keys:
        rank = "full" if kind == "per_scenario" else "vec"
        source = generate_program(variant, vd, _batch(variant, kind), velocity_rank=rank).c_source
        if native.load(source, {}) is None and (proc := native.build(source)) is not None:
            proc.wait()
            native.load(source, {})
