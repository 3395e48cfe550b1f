"""The paper's P and second R on real hardware: a generated kernel as one C function.

:mod:`repro.core.codegen` schedules a kernel into statements, each a
post-order tree of ufunc calls whose rows :func:`~repro.core.passes.assign_rows`
placed.  On numpy a row is a lane array in L2 and a call a ufunc dispatch;
:func:`emit_c` prints the *same* statements in the same order as one C
function -- element groups outer, ``#pragma omp simd`` lanes inner -- in
which every row is a ``double`` declared inside the lane loop: the paper's
privatization, the row count being the register column (``storage="rows"``
indexes rows ``[l]`` in a caller's arena instead, to measure B -> P only).
Handed an accumulator, it also scatters each group's local RHS immediately.

The C form is a substrate of ``mode="codegen"``, not a mode.  A
:class:`NativeForm` rides on a bound generated kernel and moves ``python
-> building -> loaded -> adopted | rejected``: a content-hash hit in the
cache directory loads at bind; on a miss ``cc`` starts as a child process
only once the kernel's own Python-form sweeps have cost about one build
(:data:`BUILD_AFTER_S`) and is polled at sweep start, never waited for.
The first sweep after a load runs both forms on that sweep's input, C as it
serves -- one call per group range (:mod:`repro.parallel.threads`) into one
accumulator, an entry on a node an earlier range touches into a spill row of
its own that the flush replays in order -- and compares the flushed results
bit for bit: equal, the C function serves from then on; different, or
build/load failed, the kernel stays on the Python form for good, counted and
traced.  Flags keep values (``+ - * / sqrt`` stay IEEE-exact), :data:`C_OPS`
spells the rest like numpy's ufuncs, literals are hex floats (no decimal parse).
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import signal
import subprocess
import threading
from contextlib import suppress
from typing import Dict, List, Optional

import numpy as np

from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from ..parallel.threads import fork_join
from .arena import aligned_empty
from .passes import is_scalar, reads

__all__ = ["BUILD_AFTER_S", "C_OPS", "FLAGS", "NativeForm", "build", "emit_c", "load", "stop_builds"]

#: DSL op -> C expression reproducing the numpy ufunc's bits.  No ``cbrt``:
#: libm's is an ulp off numpy's, so a body using it (none does) gets no C form
C_OPS = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "div": "{a} / {b}",
    "max": "({a} > {b} || {a} != {a}) ? {a} : {b}",  # numpy: NaN wins, a tie is b
    "neg": "-{a}",
    "sqrt": "sqrt({a})",
}

#: value-preserving flags only: no reassociation, no FMA contraction
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fno-math-errno",
         "-fopenmp-simd", "-march=native", "-shared", "-fPIC")

#: Python-form sweep seconds a kernel spends before it forks a compiler:
#: about one build, the ski-rental point (short-lived kernels never pay)
BUILD_AFTER_S = 0.25


def _lit(x) -> str:
    """Exact C literal: ``float.hex`` round-trips every finite bit."""
    f = float(x)
    if math.isfinite(f):
        return f"({f.hex()})"
    return '__builtin_nan("")' if f != f else f"({'-' * (f < 0)}__builtin_inf())"


def emit_c(low, front, *, vector_dim: int, scenarios: int = 1,
           full_velocity: bool = False, storage: str = "private",
           header: str = "") -> str:
    """Print a lowering's statements (``_Stmt.tree`` order, ``_stmt_rows``
    rows) as one C function over groups ``[g0, g1)``, one C statement per
    ufunc call.  ``S = 1`` is a solo sweep's kernel; a batch runs its rank-1
    statements once per lane block ahead of the scenario loop and stashes,
    by value id, what the per-scenario ones read of them (each phase keeps
    the schedule's order, so a row is still read before it is reused)."""
    at = {"private": "", "rows": "[l]"}[storage]
    vd, S = int(vector_dim), int(scenarios)
    stmts, rows, rank, q_of = low.body_stmts, low.body_rows, front.rank, front.q_of
    if any(op[0] in ("bin", "un") and op[1] not in C_OPS
           for st in stmts for op in st.tree):
        return ""
    pin = {r: k for k, r in enumerate(front.pinned)}
    names = sorted({f"{rank[r][0]}{row}" for r, row in rows.items()})
    shared = [S > 1 and st.op[0] != "sc" and rank[st.op[-1]] == "vec"
              for st in stmts]
    made = {st.op[-1] for st, once in zip(stmts, shared) if once}
    stash = sorted({r for st, once in zip(stmts, shared) if not once
                    for op in st.tree for r in reads(op)
                    if not is_scalar(r) and r in made})
    # lanes per block: bounds the stash whatever the group size
    lb = math.gcd(vd, 32) if made else vd

    def ref(r, per_scenario: bool = True) -> str:
        if is_scalar(r):
            return _lit(r)
        if r in pin:
            return f"p[{pin[r]} * nlane + l]"
        if r in q_of:
            return f"q[{q_of[r]}][s]"
        if per_scenario and r in made:
            return f"x{r}[l]"
        # a fused select owns no row: it is a block-local value
        return f"{rank[r][0]}{rows[r]}{at}" if r in rows else f"t{r}"

    phases: Dict[bool, List[str]] = {True: [], False: []}
    for st, once in zip(stmts, shared):
        out, rd = phases[once], functools.partial(ref, per_scenario=not once)
        for op in st.tree:
            tag = op[0]
            if tag == "sc":
                out.append(f"sv[{op[1] * vd} + l] = {rd(op[4])};")
                continue
            if tag in ("bin", "un"):
                rhs = C_OPS[op[1]].format(a=rd(op[2]), b=rd(op[-2]))  # un: b unused
            elif tag == "sel":
                rhs = f"{rd(op[1])} > {_lit(op[4])} ? {rd(op[2])} : {rd(op[3])}"
            else:  # gf (coordinate gathers are hoisted into setup)
                comp = f"({op[3] * S} + s)" if full_velocity else f"{op[3]}"
                rhs = f"vc[{comp} * nnode + gi[{op[2]} * nlane + l]]"
            dst = ref(op[-1], False)
            out.append(f"{'const double ' * (dst[0] == 't')}{dst} = {rhs};")
        if once and st.op[-1] in stash:
            out.append(f"x{st.op[-1]}[l] = {ref(st.op[-1], False)};")

    arena = [f"double *restrict {n} = B + {k * lb};"
             for k, n in enumerate(names)] * bool(at)
    local = [f"double {', '.join(names)};"] * (bool(names) and not at)

    def lane_loop(body: List[str], pad: str) -> List[str]:
        return [pad + ln for ln in (
            "#pragma omp simd", f"for (int l = 0; l < {lb}; ++l) {{",
            *("  " + b for b in local + body), "}")]

    # the second R: given an accumulator, ``sv`` is a group-sized scratch that a
    # *scalar* loop adds to it after the group's last lane block in ``scatter_calls``
    # order -- per bin the deferred flush's (group, call, lane) order.  Calls of one
    # node slot share a loop while their components (bins) differ; padding is skipped.
    nsv, back, runs = len(front.scatter_calls) * vd, vd - lb, []
    for c, (slot, comp) in enumerate(front.scatter_calls):
        if not runs or runs[-1][0] != slot or comp in runs[-1][1]:
            runs.append((slot, {}))
        runs[-1][1][comp] = c
    last = f" && b % {vd // lb} == {vd // lb - 1}" * (lb < vd)  # a group's last block
    scatter = [f"if (OUT{last}) {{", *(ln for slot, calls in runs for ln in (
        f"  for (int l = 0; l < {vd} && g * {vd} + l < nelem; ++l) {{",
        f"    double *o = OUT + (s * nnode + gi[{slot} * nlane + l - {back}]) * 3;",
        *(f"    o[{comp}] += sv[{c * vd - back} + l];" for comp, c in calls.items()),
        "  }")), "}"]

    return "\n".join([
        "/* generated by repro.core.native -- do not edit */",
        f"/* {header} storage={storage} */",
        "double sqrt(double);", "typedef long long i64;",
        "typedef const double *restrict in;", "",
        "void kernel(i64 g0, i64 g1, i64 nnode, i64 nlane, i64 ngroups, i64 nelem,",
        "            in vc, const i64 *restrict GI, in P, const double *const *restrict q,",
        "            double *restrict SV, double *restrict B, double *restrict OUT)", "{",
        *("  " + a for a in arena),
        f"  for (i64 b = g0 * {vd // lb}; b < g1 * {vd // lb}; ++b) {{",
        f"    const i64 g = b / {vd // lb}, lane = b * {lb}, *restrict gi = GI + lane;",
        "    in p = P + lane;",
        *(f"    double x{r}[{lb}];" for r in stash),
        *(lane_loop(phases[True], "    ") if made else []),
        f"    for (i64 s = 0; s < {S}; ++s) {{",
        f"      double *restrict sv = SV + (OUT ? s : s * ngroups + g) * {nsv}"
        f" + (lane - g * {vd});",
        *lane_loop(phases[False], "      "),
        *("      " + ln for ln in scatter),
        "    }", "  }", "}", "",
    ])


# -- cache directory, content key, compiler children ------------------------

_LOCK = threading.Lock()
#: .so path -> its compiler child, kept after exit: one attempt per process
_BUILDS: Dict[str, subprocess.Popen] = {}


@functools.lru_cache(maxsize=None)
def _cpu_flags() -> str:
    """The CPU feature line ``-march=native`` resolves against."""
    with suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        return next((ln for ln in fh if ln.startswith(("flags", "Features"))), "")
    return ""


def so_path(source: str) -> str:
    """The shared object of ``source``: dump directory or user cache; spawns nothing."""
    cc = os.environ.get("CC") or "cc"
    text = "\0".join((source, cc, *FLAGS, platform.machine(), _cpu_flags()))
    return os.path.join(
        os.environ.get("REPRO_CODEGEN_DUMP") or os.path.join(
            os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
            "repro"),
        f"repro-{hashlib.sha256(text.encode()).hexdigest()[:32]}.so")


def _trusted(path: str) -> bool:
    """Owned by this user and not group/world-writable: the ``.so`` is
    executable code, so nobody else may have been able to write it."""
    with suppress(OSError, AttributeError):  # no getuid: nothing is trusted
        st = os.stat(path)
        return st.st_uid == os.getuid() and not st.st_mode & 0o022
    return False


def build(source: str) -> Optional[subprocess.Popen]:
    """The compiler child building ``source`` (one pending or failed try
    per process and key), or ``None``: no compiler, no trusted directory."""
    so = so_path(source)
    with _LOCK:
        proc = _BUILDS.get(so)
        if proc is not None and proc.poll() != 0:
            return proc  # pending, or failed; a built file that is gone is rebuilt
        cc = shutil.which(os.environ.get("CC") or "cc")
        c_file, tmp = so[:-3] + ".c", f"{so}.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(so), mode=0o700, exist_ok=True)
            if cc is None or not _trusted(os.path.dirname(so)):
                return None
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(source)
            os.replace(tmp, c_file)
            null = subprocess.DEVNULL
            proc = subprocess.Popen(
                [cc, *FLAGS, "-o", tmp, c_file, "-lm"], stdin=null,
                stdout=null, stderr=null, start_new_session=True)
        except OSError:
            return None
        if not _BUILDS:
            atexit.register(stop_builds)
        _BUILDS[so] = proc
    get_registry().counter("codegen.native_builds").inc()
    return proc


def _install(so: str, proc: subprocess.Popen) -> None:
    """Move a finished build's output into place (under :data:`_LOCK`)."""
    tmp = f"{so}.{os.getpid()}"
    if proc.poll() == 0 and os.path.exists(tmp):
        os.replace(tmp, so)


def stop_builds() -> None:
    """``atexit`` / the server's drain: no orphan compiler (its group is
    terminated; ``cc`` removes partial output), finished builds kept."""
    with _LOCK:
        for so, proc in _BUILDS.items():
            if proc.poll() is None:
                with suppress(OSError):
                    os.killpg(proc.pid, signal.SIGTERM)
                proc.wait()
            _install(so, proc)


KERNEL = {"kernel": [ctypes.c_longlong] * 6 + [ctypes.c_void_p] * 7}  #: :func:`emit_c`'s export


def load(source: str, symbols: Dict[str, list]):
    """The cached C functions of ``source`` by name (``symbols``: name -> argtypes),
    or ``None``, a miss: a file somebody else could have written is refused, one
    that does not load is removed."""
    so = so_path(source)
    with _LOCK:
        if so in _BUILDS:
            _install(so, _BUILDS[so])
    if not (_trusted(so) and _trusted(os.path.dirname(so))):
        return None
    try:
        lib = ctypes.CDLL(so)
        fns = {name: getattr(lib, name) for name in symbols}
    except (OSError, AttributeError):
        with suppress(OSError):
            os.unlink(so)
        return None
    for name, fn in fns.items():
        fn.argtypes, fn.restype = symbols[name], None
    return fns


class NativeForm:
    """One bound generated kernel's C form; runs under the kernel's lock."""

    def __init__(self, kern) -> None:
        self.source: str = kern.program.c_source
        self.spent = 0.0  # seconds this kernel's Python-form chunks have run
        self.state = "python" if self.source else "rejected"
        self._proc: Optional[subprocess.Popen] = None
        # the kernel never reallocates these buffers: addresses bind once; the row
        # stride is nodes + spill rows (``_w``: each group range's one-group scratch)
        rows = kern._Q
        self._q = (ctypes.c_void_p * (len(rows) or 1))(*[a.ctypes.data for a in rows])
        bufs = (kern._vcols, kern._idx, kern._pinned)
        if not all(a.flags.c_contiguous and a.itemsize == 8 for a in bufs):
            raise AssertionError("native form binds contiguous 8-byte buffers")
        self._args = (
            kern._vcols.shape[-1], kern.nlane, kern.ngroups, int(kern.plan.mesh.nelem),
            kern._vcols.ctypes.data, kern._idx.ctypes.data,
            kern._pinned.ctypes.data, ctypes.addressof(self._q))
        self._w = [aligned_empty(math.prod(kern._values_shape) // kern.ngroups)
                   for _ in kern._cuts[1:]]
        self._fn = (load(self.source, KERNEL) or {}).get("kernel") if self.source else None
        if self._fn is not None:
            self.state = "loaded"
            get_registry().counter("codegen.native_cache_hits").inc()

    def build(self, wait: bool = False) -> bool:
        """Start (or join) the build; ``wait`` blocks until it has ended.
        Returns whether the C function is loaded."""
        if self.state == "python":
            self._proc, self.state = build(self.source), "building"
        if self.state == "building":
            if wait and self._proc is not None:
                self._proc.wait()
            if self._proc is None or self._proc.poll() is not None:
                self._fn = self._proc and (load(self.source, KERNEL) or {}).get("kernel")
                self.state = "loaded" if self._fn else "rejected"
                if not self._fn:
                    get_registry().counter("codegen.native_build_failed").inc()
        return self.state in ("loaded", "adopted")

    def _run(self, kern) -> None:
        """The C sweep: one call per group range into ``_acc`` (zeroed here), range 0
        on this thread; the flush replays the spill rows."""
        kern._scatter, split = "fused", len(self._calls) > 1
        kern._acc.fill(0.0)
        why, span = fork_join(self._calls), get_tracer().current
        if span is not None:
            span.attributes.update(ranges=len(self._calls), spill_rows=len(kern._spill),
                                   **{"reason": why} if why else {})
        get_registry().counter("scatter.split_sweeps").inc(split)
        get_registry().counter("scatter.spill_rows").inc(len(kern._spill))

    def sweep_tasks(self, kern, python_tasks):
        """At sweep start: the C form's one task when it serves, else ``None``."""
        if self.state == "building" or (self.state == "python" and self.spent > BUILD_AFTER_S):
            self.build()
        if self.state == "loaded":
            return self._adopt(kern, python_tasks)
        return [functools.partial(self._run, kern)] if self.state == "adopted" else None

    def _adopt(self, kern, python_tasks) -> list:
        """Run the Python form, then the C form as it serves (:meth:`_run`) on this
        sweep's input: it serves only if the flushed results agree bit for bit (NaNs
        by mask).  Either form then runs again for the caller's flush (the replay is in place)."""
        from ..resilience.ladders import record_escalation

        def flushed() -> bytes:
            out = np.zeros(kern._rhs_shape)
            kern._flush(out)
            out[np.isnan(out)] = np.nan
            return out.tobytes()

        fork_join(python_tasks())
        ref = flushed()
        kern._acc = aligned_empty(kern._rhs_shape[:-2] + (kern._vcols.shape[-1], 3))
        self._calls = [functools.partial(self._fn, g0, g1, *self._args, w.ctypes.data, None,
                                         kern._acc.ctypes.data)
                       for g0, g1, w in zip(kern._cuts, kern._cuts[1:], self._w)]
        self._run(kern)
        same = flushed() == ref
        self.state = "adopted" if same else "rejected"
        if same:
            kern._chunk_cache.clear()  # the Python form's slabs ...
            kern._sv = None  # ... and the values only its deferred sweeps read
        else:
            kern._scatter, kern._acc = "deferred", None
        record_escalation(f"Native{self.state.capitalize()}", f"codegen.native_{self.state}",
                          variant=kern.program.variant, scenarios=kern.S)
        return [functools.partial(self._run, kern)] if same else python_tasks()
