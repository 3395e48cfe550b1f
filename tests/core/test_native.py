"""The C form of the generated kernels (``repro.core.native``).

Exactness is tested op by op, not inferred; the kernel-level tests hold
the C form to the same ``.tobytes()`` oracle as every other back end, on
fields containing both zeros; the lifecycle tests pin adoption, rejection,
the no-compiler path and the cache's trust rules; section (f) holds the
immediate scatter to the order of the deferred flush.
"""

import ctypes
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import ScenarioBatch, UnifiedAssembler, generated_kernel
from repro.core import native
from repro.core.codegen import GeneratedKernel
from repro.core.passes import UFUNC_NAMES
from repro.fem import box_tet_mesh, get_plan
from repro.obs.metrics import get_registry
from repro.parallel import threads
from repro.physics import AssemblyParams
from tests.core.test_differential import _cuts, _field, corner

PARAMS = AssemblyParams(body_force=(0.05, -0.1, 0.2))
VD = 16


@pytest.fixture(scope="module", autouse=True)
def _builds_ahead_done(native_builds_ahead):
    """The cache tests below tamper with and count cached ``.so`` files:
    the session's build-ahead child must have finished."""
    if native_builds_ahead is not None:
        native_builds_ahead.wait(timeout=600)


def _count(name, prefix="codegen.native_"):
    entry = get_registry().snapshot().get(prefix + name)
    return 0.0 if entry is None else entry["value"]


def _compile(source):
    """Build ``source`` now; the loaded library, or None without a compiler."""
    proc = native.build(source)
    if proc is None or proc.wait() != 0 or native.load(source, {}) is None:
        return None
    return ctypes.CDLL(native.so_path(source))


def _only_kernel(asm):
    (kern,) = asm.plan.kernels["codegen"].values()
    return kern


# -- (a) op templates and literals against numpy, bit for bit ----------------

SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.1125369292536007e-308,
    2.2250738585072014e-308, 1.0, -1.0, 0.1, -3.0, 8.0, 1.7976931348623157e308,
])


def test_every_c_op_matches_its_numpy_ufunc_bitwise(cc):
    ufuncs = {op: getattr(np, name) for op, name in UFUNC_NAMES.items()}
    assert set(ufuncs) - set(native.C_OPS) == {"cbrt"}
    a, b = (m.ravel().copy() for m in np.meshgrid(SPECIALS, SPECIALS))
    loop = ("void op_{name}(long long n, const double *a, const double *b, "
            "double *o)\n{{ for (long long i = 0; i < n; ++i) o[i] = {expr}; }}\n")
    source = "double sqrt(double);\n" + "".join(
        loop.format(name=name, expr=tmpl.format(a="a[i]", b="b[i]"))
        for name, tmpl in native.C_OPS.items()
    ) + loop.format(name="select", expr="a[i] > (0x1p-1) ? a[i] : b[i]")
    lib = _compile(source)
    ptr = ctypes.c_void_p

    def run(name):
        out = np.empty_like(a)
        fn = getattr(lib, "op_" + name)
        fn.argtypes, fn.restype = [ctypes.c_longlong, ptr, ptr, ptr], None
        fn(a.size, a.ctypes.data, b.ctypes.data, out.ctypes.data)
        return out

    with np.errstate(all="ignore"):
        for name in native.C_OPS:
            want = ufuncs[name](a, b) if ufuncs[name].nin == 2 else ufuncs[name](a)
            assert run(name).tobytes() == want.tobytes(), name
        want = np.where(np.greater(a, 0.5), a, b)
    assert run("select").tobytes() == want.tobytes()


def test_a_body_with_an_irreproducible_op_gets_no_c_form():
    """libm's cbrt is an ulp off numpy's (0.1 -> ...cff2 vs ...cff3): no
    template, and a kernel whose per-sweep body used it stays on Python."""
    from types import SimpleNamespace as NS

    stmt = NS(op=("un", "cbrt", 0, 1), tree=[("un", "cbrt", 0, 1)])
    low = NS(body_stmts=[stmt], body_rows={1: 0})
    front = NS(rank={0: "vec", 1: "vec"}, q_of={}, pinned=[], scatter_calls=())
    assert native.emit_c(low, front, vector_dim=8) == ""


def test_literals_are_bit_exact(cc):
    values = np.concatenate([SPECIALS, np.random.default_rng(1).standard_normal(32)])
    body = "".join(f"  o[{i}] = {native._lit(v)};\n" for i, v in enumerate(values))
    lib = _compile(f"void fill(double *o)\n{{\n{body}}}\n")
    out = np.empty_like(values)
    lib.fill.argtypes, lib.fill.restype = [ctypes.c_void_p], None
    lib.fill(out.ctypes.data)
    assert out.tobytes() == values.tobytes()


# -- (b) every variant x batch shape x executor against the interpreter ------

test_native_is_bitwise_the_interpreter = corner("test_native_is_bitwise_the_interpreter")


def test_rows_storage_is_the_same_function(cc):
    """The un-privatized form (measurement only) computes the same bits."""
    from repro.core.codegen import _lower_mesh
    from repro.core.passes import front_end
    from repro.core.tape import _record

    mesh = box_tet_mesh(3, 3, 3)
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=VD)
    want = asm.assemble("RSP", _field((mesh.nnode, 3), "plain"))
    kern = _only_kernel(asm)
    front = front_end(_record("RSP", ScenarioBatch([PARAMS]))[1], hoist=True)
    low = _lower_mesh(front)
    assert native.emit_c(low, front, vector_dim=VD).splitlines()[2:] == \
        kern.program.c_source.splitlines()[2:]
    source = native.emit_c(low, front, vector_dim=VD, storage="rows")
    assert "v0[l]" in source and "v0[l]" not in kern.program.c_source
    assert _compile(source) is not None
    arena = np.empty((kern.program.nslab_vec, VD))
    native.load(source, native.KERNEL)["kernel"](
        0, kern.ngroups, *kern._native._args, kern._values.ctypes.data, arena.ctypes.data, None)
    got = np.zeros_like(want)
    kern._flush(got[None])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(KeyError):
        native.emit_c(low, front, vector_dim=VD, storage="registers")


# -- (c) a wrong template is rejected at adoption -----------------------------

def test_wrong_template_is_rejected_at_adoption(cc, monkeypatch, telemetry):
    monkeypatch.setitem(native.C_OPS, "add", native.C_OPS["sub"])
    mesh = box_tet_mesh(3, 3, 3)
    tracer, _ = telemetry
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=VD)
    u = _field((mesh.nnode, 3), "plain")
    want = asm.assemble("RSP", u)
    kern = _only_kernel(asm)
    before = _count("rejected"), _count("adopted")
    assert kern.build_native(wait=True)
    assert asm.assemble("RSP", u).tobytes() == want.tobytes()
    assert kern._native.state == "rejected"
    assert (_count("rejected"), _count("adopted")) == (before[0] + 1, before[1])
    assert [s.name for s in tracer.finished].count("NativeRejected") == 1

    def never(*args):
        raise AssertionError("a rejected C function was called")

    kern._native._fn = never
    for _ in range(3):
        assert asm.assemble("RSP", u).tobytes() == want.tobytes()
    assert not kern.build_native()  # and it is never rebuilt


# -- (d) no compiler ------------------------------------------------------------

def test_without_a_compiler_codegen_serves_from_python(monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    spawned = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        spawned.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(native.subprocess, "Popen", popen)
    mesh = box_tet_mesh(3, 3, 3)
    u = _field((mesh.nnode, 3), "plain")
    want = UnifiedAssembler(mesh, PARAMS, mode="interpreted", vector_dim=VD).assemble("RS", u)
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=VD)
    for _ in range(3):  # short-lived: below the build threshold, nobody forks
        assert asm.assemble("RS", u).tobytes() == want.tobytes()
    assert spawned == []
    kern = _only_kernel(asm)
    assert kern._native.state == "python"

    # past the threshold the one attempt fails and is never repeated
    monkeypatch.setattr(native, "BUILD_AFTER_S", 0.0)
    failed = _count("build_failed")
    for _ in range(4):
        assert asm.assemble("RS", u).tobytes() == want.tobytes()
        if kern._native._proc is not None:
            kern._native._proc.wait()
    assert len(spawned) == 1 and kern._native.state == "rejected"
    assert _count("build_failed") == failed + 1
    again = UnifiedAssembler(box_tet_mesh(3, 3, 3), PARAMS, mode="codegen",
                             vector_dim=VD)
    for _ in range(3):
        again.assemble("RS", u)
    assert len(spawned) == 1


# -- (e) cache: hit in a fresh process, untrusted files refused ---------------

HIT_SCRIPT = """
import subprocess, sys
import numpy as np
from repro.core import UnifiedAssembler, native
from repro.fem import box_tet_mesh
from repro.obs.metrics import get_registry
from repro.physics import AssemblyParams

def boom(*a, **k):
    raise SystemExit("a cache hit spawned a process")
native.subprocess.Popen = boom
mesh = box_tet_mesh(3, 3, 3)
asm = UnifiedAssembler(mesh, AssemblyParams(body_force=(0.05, -0.1, 0.2)),
                       mode="codegen", vector_dim=16)
u = np.ones((mesh.nnode, 3))
asm.assemble("RSPR", u); asm.assemble("RSPR", u)
snap = get_registry().snapshot()
print(*(int(snap.get("codegen.native_" + k, {"value": 0})["value"])
        for k in ("cache_hits", "adopted", "builds")))
"""


def test_second_bind_in_a_fresh_process_is_a_hit(cc):
    mesh = box_tet_mesh(3, 3, 3)
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=VD)
    asm.assemble("RSPR", np.ones((mesh.nnode, 3)))
    assert _only_kernel(asm).build_native(wait=True)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", HIT_SCRIPT], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "0"]


@pytest.mark.parametrize("tamper", ["world_writable", "foreign_owner"])
def test_untrusted_cache_file_is_refused_and_rebuilt(cc, tamper):
    if tamper == "foreign_owner" and os.getuid() != 0:
        pytest.skip("needs root to give the file away")
    mesh = box_tet_mesh(3, 3, 3)
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=8)
    asm.assemble("RS", np.ones((mesh.nnode, 3)))
    kern = _only_kernel(asm)
    assert kern.build_native(wait=True)
    so = native.so_path(kern.program.c_source)
    if tamper == "world_writable":
        os.chmod(so, 0o666)
    else:
        os.chown(so, 12345, -1)
    hits, builds = _count("cache_hits"), _count("builds")
    other = UnifiedAssembler(box_tet_mesh(3, 3, 3), PARAMS, mode="codegen",
                             vector_dim=8)
    other.assemble("RS", np.ones((mesh.nnode, 3)))
    fresh = _only_kernel(other)
    assert fresh._native.state == "python" and _count("cache_hits") == hits
    assert fresh.build_native(wait=True)
    assert _count("builds") == builds + 1
    st = os.stat(so)
    assert st.st_uid == os.getuid() and not st.st_mode & 0o022


def test_unloadable_cache_file_is_removed_and_missed(cc):
    source = "/* not a shared object */ void kernel(void) {}\n"
    so = native.so_path(source)
    os.makedirs(os.path.dirname(so), mode=0o700, exist_ok=True)
    with open(so, "w") as fh:
        fh.write("garbage")
    assert native.load(source, native.KERNEL) is None and not os.path.exists(so)


def test_a_finished_build_nobody_loaded_is_kept_at_exit(cc):
    """A process that exits between its build and its next sweep leaves the
    next process a hit, not a temp file."""
    source = "/* built, never loaded */ void kernel(void) {}\n"
    so = native.so_path(source)
    assert native.build(source).wait() == 0 and not os.path.exists(so)
    native.stop_builds()
    assert os.path.exists(so) and not os.path.exists(f"{so}.{os.getpid()}")


# -- (f) the immediate scatter: order, placement, memory ----------------------

test_fused_scatter_is_bitwise_the_interpreter = corner(
    "test_fused_scatter_is_bitwise_the_interpreter")


def _reversed_lanes(source):
    return re.sub(r"for \(int l = 0; l < (\d+) && (g \* \d+ \+ l < nelem); \+\+l\)",
                  r"for (int l = \1 - 1; l >= 0; --l) if (\2)", source)


def _swapped_calls(source):
    """The scatter loops of node slots 0 and 1 trade places."""
    one, two = re.findall(r"^ +for \(int l = 0; l < \d+ &&.*?^ +}\n", source,
                          re.S | re.M)[:2]
    return source.replace(one, "@").replace(two, one).replace("@", two)


def _reversed_replay(acc, at, n):
    for a in acc.reshape(-1, acc.shape[-2] * 3):
        np.add.at(a[:n], at[::-1], a[n:][::-1])


def _twice_added_spill(acc, at, n):
    for a in acc.reshape(-1, acc.shape[-2] * 3):
        np.add.at(a[:n], np.r_[at, at[:3]], np.r_[a[n:], a[n:n + 3]])


@pytest.mark.parametrize("wrong", [_reversed_lanes, _swapped_calls, _reversed_replay,
                                   _twice_added_spill])
def test_a_wrong_scatter_order_is_rejected_at_adoption(cc, monkeypatch, wrong):
    """Same values, same bins, another order within a bin (or a spill row
    replayed twice): the deferred placement still agrees, the C form as it
    serves -- two group ranges, their spill replayed -- does not: rejected."""
    if wrong in (_reversed_replay, _twice_added_spill):
        monkeypatch.setattr(threads, "replay_spill", wrong)
    else:
        emit = native.emit_c
        monkeypatch.setattr(native, "emit_c", lambda *args, **kw: wrong(emit(*args, **kw)))
    monkeypatch.setattr(GeneratedKernel, "_range_cuts", _cuts(2))
    mesh = box_tet_mesh(3, 3, 3)
    u = _field((mesh.nnode, 3), "wide")
    want = UnifiedAssembler(mesh, PARAMS, mode="interpreted", vector_dim=VD).assemble("RSP", u)
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=VD)
    rejected = _count("rejected")
    for _ in range(4):  # a cache hit adopts at the first sweep, a build at the second
        assert asm.assemble("RSP", u).tobytes() == want.tobytes()
        _only_kernel(asm).build_native(wait=True)
    kern = _only_kernel(asm)
    assert kern._native.state == "rejected" and kern._acc is None and len(kern._spill)
    assert _count("rejected") == rejected + 1
    # the order was the only thing wrong with it
    kern._native._fn(0, kern.ngroups, *kern._native._args, kern._values.ctypes.data, None, None)
    got = np.zeros_like(want)
    kern._flush(got[None])
    assert got.tobytes() == want.tobytes()


def _peak(call):
    """What ``call`` allocates at its peak (all threads), and its result."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = call()
        return tracemalloc.get_traced_memory()[1] - before, got
    finally:
        tracemalloc.stop()


def test_a_steady_state_fused_sweep_allocates_only_its_result(cc, monkeypatch):
    """No per-sweep buffer at the sweep layer: one fused sweep allocates, at its
    peak, the ``rhs`` it returns (plus call overhead) -- in one group range, and
    in two, whose spill, scratch and worker handoff bind once (the replay adds
    one ``np.add.at`` call's overhead); one CPU runs them in sequence, no worker."""
    u = _field((box_tet_mesh(6, 6, 6).nnode, 3), "plain")
    replay, _ = _peak(lambda: np.add.at(np.zeros(3), np.zeros(3, dtype=np.int64), np.ones(3)))
    results = []
    for ranges, one_cpu in ((1, False), (2, False), (2, True)):
        monkeypatch.setattr(GeneratedKernel, "_range_cuts", _cuts(ranges))
        if one_cpu:
            monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: {0})
            monkeypatch.setattr(threads, "_workers", [])
        kern = generated_kernel(get_plan(box_tet_mesh(6, 6, 6)), "RSP", VD,
                                ScenarioBatch([PARAMS]))
        assert kern.build_native(wait=True)
        for _ in range(3):
            kern.execute(u)
        assert kern._native.state == "adopted" and len(kern._cuts) == ranges + 1
        threads_before = threading.active_count()
        grew, rhs = _peak(lambda: kern.execute(u))
        assert grew <= rhs.nbytes + 4096 + (ranges - 1) * replay
        assert threading.active_count() == threads_before  # no thread per sweep
        # the guard would see the deferred buffer re-created, or the spill rows copied
        assert kern._sv is None and np.prod(kern._values_shape) * 8 > 4 * rhs.nbytes
        assert ranges == 1 or kern._acc[0, kern.nnode:].nbytes > 4096 + replay
        assert not one_cpu or threads._workers == []
        results.append(rhs.tobytes())
    assert results[0] == results[1] == results[2]


# -- observability and import hygiene ----------------------------------------

def test_execute_span_says_which_form_served(cc, telemetry, monkeypatch):
    mesh = box_tet_mesh(3, 3, 3)
    tracer, registry = telemetry
    monkeypatch.setattr(GeneratedKernel, "_range_cuts", _cuts(2))
    monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: {0, 1})
    # a group size no other test builds: the first bind is a cache miss
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=24)
    u = _field((mesh.nnode, 3), "plain")
    asm.assemble("RSP", u)
    kern = _only_kernel(asm)
    assert kern.build_native(wait=True)
    asm.assemble("RSP", u)  # adoption: the C form twice, checked then served
    asm.assemble("RSP", u)
    with threads._workers[0][0]:  # another caller's range holds the worker
        asm.assemble("RSP", u)
    monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: {0})
    asm.assemble("RSP", u)
    spans = [s for s in tracer.finished if s.name == "codegen.execute"]
    assert [(s.attributes["native"], s.attributes["scatter"], s.attributes.get("reason"))
            for s in spans] == [(False, "deferred", None)] + [(True, "fused", None)] * 2 + [
        (True, "fused", "busy"), (True, "fused", "one_cpu")]
    assert spans[0].attributes["chunks"] >= 1 and spans[0].attributes["arena_bytes"] > 0
    assert spans[2].attributes["chunks"] == 0 and spans[2].attributes["arena_bytes"] == 0
    assert {(s.attributes["ranges"], s.attributes["spill_rows"]) for s in spans[1:]} == {
        (2, len(kern._spill))} and len(kern._spill) > 0
    assert [registry.snapshot()[f"scatter.{name}"]["value"] for name in (
        "split_sweeps", "spill_rows")] == [5, 5 * len(kern._spill)]
    assert [s.name for s in tracer.finished].count("NativeAdopted") == 1


def test_profiled_sweeps_stay_on_the_python_source(cc):
    mesh = box_tet_mesh(3, 3, 3)
    u = _field((mesh.nnode, 3), "plain")
    asm = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=VD)
    want = asm.assemble("RSP", u)
    kern = _only_kernel(asm)
    assert kern.build_native(wait=True)
    asm.assemble("RSP", u)
    kern._native._fn = None  # a profiled sweep must not need it
    profiled = UnifiedAssembler(mesh, PARAMS, mode="codegen", vector_dim=VD, profile=True)
    assert profiled.assemble("RSP", u).tobytes() == want.tobytes()
    profile = next(iter(profiled.profiler.profiles.values()))
    assert profile.executions == 1


def test_dump_writes_the_c_file_beside_the_python_one(tmp_path, monkeypatch):
    from repro.core.codegen import generate_program

    monkeypatch.setenv("REPRO_CODEGEN_DUMP", str(tmp_path))
    generate_program("RS", 8, ScenarioBatch([PARAMS]))
    py, c = ((tmp_path / f"RS_vd8.{ext}").read_text().splitlines()
             for ext in ("py", "c"))
    assert py[1].startswith("# variant=RS") and "rows=vec:" in py[1]
    assert c[1] == f"/* {py[1][2:]} storage=private */"
    assert any("#pragma omp simd" in line for line in c)


def test_cold_import_does_not_touch_the_native_module(tmp_path):
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), XDG_CACHE_HOME=str(tmp_path))
    code = ("import sys, repro; assert 'repro.core.native' not in sys.modules; "
            "import repro.core.codegen as c; c.stop_builds(); "
            "assert 'repro.core.native' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path) == []
