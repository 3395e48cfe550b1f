"""Real ``multiprocessing`` strong scaling of the elemental assembly.

:class:`MultiprocessRunner` measures the wall-clock analogue of Figure 2
on this machine (the paper's pure-MPI, turbo-binned curve is modelled by
:meth:`repro.machine.cpu.CpuModel.scaling_curve`).

The runner shares the read-only element arrays (packed coordinates and
velocities) with its workers through ``multiprocessing.shared_memory`` and
keeps **one** persistent spawn pool alive across all measured worker
counts: per measurement, only chunk *bounds* are pickled -- O(1) per task
instead of O(nelem) -- so the scaling curve measures assembly, not IPC.
In the ``compiled`` / ``codegen`` assembly modes the one other thing
shipped is the picklable program a solver's mesh would bind; a worker
binds it to its chunk as a mesh of disjoint elements
(:func:`_chunk_kernel`), so there is no worker flavour of any kernel.

Workers are *supervised*: every chunk is dispatched with ``apply_async``
under a per-task deadline (:class:`WorkerPolicy`), so a crashed, hard-dead
or hung worker surfaces as a failed chunk instead of blocking ``pool.map``
forever.  Failed chunks are re-dispatched with bounded retries onto a
freshly respawned pool (exponential backoff between respawns); a chunk
that exhausts its retry budget falls back to in-process serial assembly --
the run completes, slower, with the loss visible in the
``resilience.retries`` / ``resilience.fallbacks`` counters and a
``WorkerFailure`` span per incident.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fem.mesh import TetMesh
from ..fem.plan import get_plan
from ..obs.metrics import get_registry
from ..obs.spans import NULL_TRACER, Tracer, get_tracer
from ..physics.momentum import AssemblyParams, element_rhs
from ..resilience.cancel import CancelToken
from .shutdown import create_shared_memory, release_shared_memory

__all__ = ["MultiprocessRunner", "ScalingPoint", "WorkerPolicy"]


@dataclasses.dataclass(frozen=True)
class WorkerPolicy:
    """Supervision knobs for the pool workers.

    ``task_timeout`` is the per-chunk deadline in seconds -- a chunk whose
    result has not arrived by then is declared failed (covers hung *and*
    hard-dead workers, whose tasks would otherwise never return).
    ``max_retries`` bounds re-dispatches per chunk before the in-process
    serial fallback; respawned pools back off exponentially
    (``backoff_base * backoff_factor**respawn``) to avoid respawn storms.
    """

    task_timeout: float = 120.0
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0

    def backoff(self, respawn: int) -> float:
        return self.backoff_base * self.backoff_factor ** max(0, respawn)


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """One strong-scaling measurement.

    ``speedup``/``efficiency`` are normalized to the measurement at
    ``baseline_workers`` -- the *smallest* worker count in the sweep (the
    seed silently used whichever count came first in the list).
    """

    workers: int
    wall_seconds: float
    melem_per_s: float
    speedup: float
    efficiency: float
    baseline_workers: int = 1


def _require_count(name: str, value) -> int:
    """``value`` as an int if it is an integer >= 1 (numpy integers
    included, bools not), else ``ValueError``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < 1
    ):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _chunk_program(assembly_mode: str, variant: str, params: AssemblyParams):
    """The picklable program a runner ships to its workers: the very
    program a solver's mesh would bind, at the paper's CPU group size
    (``None``: workers run the vectorized reference)."""
    from ..core.unified import CPU_VECTOR_DIM

    if assembly_mode == "compiled":
        from ..core.tape import record_program

        return record_program(variant, params.as_kernel_params())
    if assembly_mode == "codegen":
        from ..core.codegen import generate_program

        return generate_program(
            variant, CPU_VECTOR_DIM, params.as_kernel_params()
        )
    return None


def _chunk_kernel(program, xel: np.ndarray, vector_dim: Optional[int] = None):
    """Bind a shipped program to a chunk of packed elements.

    The chunk is a mesh of ``n`` disjoint tetrahedra -- node ``4e + a`` is
    slot ``a`` of element ``e`` -- so the worker runs the same bound
    kernel as everyone else (hoisted invariants, the arena budget, the C
    form when a compiler exists, in one group range: a worker's
    :func:`~repro.parallel.threads.cpu_count` is 1) and, each node
    receiving exactly one lane, the chunk's ``(4n, 3)`` RHS *is* the ``(n,
    4, 3)`` elemental result: per bin the flush adds the scatter calls in
    call order.  A generated program carries its group size; a tape takes
    ``vector_dim`` (default: the paper's CPU choice).
    """
    from ..core.codegen import CodegenProgram, GeneratedKernel
    from ..core.tape import CompiledTape
    from ..core.unified import CPU_VECTOR_DIM

    n = len(xel)
    mesh = TetMesh(xel.reshape(-1, 3), np.arange(4 * n).reshape(n, 4), validate=False)
    plan = get_plan(mesh)
    if isinstance(program, CodegenProgram):
        return GeneratedKernel(program, plan, plan.packing(program.vector_dim))
    return CompiledTape(program, plan, plan.packing(int(vector_dim or CPU_VECTOR_DIM)))


def _assemble_chunk(
    rank: int,
    xel: np.ndarray,
    uel: np.ndarray,
    params: AssemblyParams,
    repeats: int,
    traced: bool,
    program=None,
) -> Tuple[float, List[dict], Tuple[float, float, float]]:
    """Assemble one element chunk ``repeats`` times.

    Returns ``(seconds, spans, checksum)`` where ``checksum`` is the
    component-wise sum of the chunk's elemental RHS -- a deterministic
    fingerprint the chaos tests compare bitwise between fault-free and
    fault-recovered runs (the serial fallback reproduces it exactly).

    With a shipped program (:class:`~repro.core.tape.TapeProgram` or
    :class:`~repro.core.codegen.CodegenProgram`) the chunk is bound once
    by :func:`_chunk_kernel` and swept ``repeats`` times -- a generated
    program re-``exec``-compiles in the worker (deterministic emission, so
    every rank compiles the identical module and hits the process-local
    code cache); otherwise the vectorized reference
    :func:`~repro.physics.momentum.element_rhs` runs.  A compiler child
    the kernel forked is terminated before the task returns: pool workers
    exit through ``os._exit``, past :mod:`repro.core.native`'s ``atexit``
    hook.
    """
    tracer = Tracer(pid=rank) if traced else NULL_TRACER
    kern = None if program is None else _chunk_kernel(program, xel)
    elem = None
    t0 = time.perf_counter()
    try:
        with tracer.span("rank", rank=rank, nelem=int(len(xel)), repeats=repeats):
            for rep in range(repeats):
                with tracer.span("assemble_chunk", rep=rep):
                    if kern is not None:
                        elem = kern.execute(uel.reshape(-1, 3))
                        elem = elem.reshape(xel.shape)
                    else:
                        elem = element_rhs(xel, uel, params)
        seconds = time.perf_counter() - t0
    finally:
        c_source = getattr(program, "c_source", "")
        if c_source:
            from ..core.codegen import stop_builds

            stop_builds(c_source)
    if elem is None:
        checksum = (0.0, 0.0, 0.0)
    else:
        sums = elem.sum(axis=(0, 1))
        checksum = (float(sums[0]), float(sums[1]), float(sums[2]))
    return seconds, tracer.export(), checksum


def _worker_assemble(args: Tuple):
    """Pool worker: map a zero-copy view of the shared element arrays and
    assemble the ``[start, stop)`` chunk (module-level for pickling).

    Only scalars cross the pickle boundary (plus, in compiled mode, the
    one-time picklable tape program); the O(nelem) coordinate and
    velocity packs live in ``multiprocessing.shared_memory``.

    ``fault_plan``/``attempt`` drive chaos testing: an injected ``worker``
    fault matching ``(rank, attempt)`` crashes, hard-exits, hangs or slows
    this worker before any shared memory is touched.
    """
    (
        rank,
        x_name,
        u_name,
        nelem,
        start,
        stop,
        params,
        repeats,
        traced,
        program,
        fault_plan,
        attempt,
    ) = args
    if fault_plan is not None:
        spec = fault_plan.worker_fault(rank, attempt)
        if spec is not None:
            fault_plan.execute_worker_fault(spec, rank, attempt)
    # Pool workers share the parent's resource-tracker process, so this
    # attach-side registration is an idempotent no-op and the parent's
    # single unlink keeps the tracker cache clean -- do NOT unregister
    # here (that would drop the parent's own registration).
    x_shm = shared_memory.SharedMemory(name=x_name)
    u_shm = shared_memory.SharedMemory(name=u_name)
    try:
        xall = np.ndarray((nelem, 4, 3), dtype=np.float64, buffer=x_shm.buf)
        uall = np.ndarray((nelem, 4, 3), dtype=np.float64, buffer=u_shm.buf)
        return _assemble_chunk(
            rank,
            xall[start:stop],
            uall[start:stop],
            params,
            repeats,
            traced,
            program,
        )
    finally:
        del xall, uall
        x_shm.close()
        u_shm.close()


def _worker_warmup(_rank: int) -> int:
    """Touch numpy in the pool worker so imports don't pollute timings."""
    return int(np.zeros(1)[0])


class MultiprocessRunner:
    """Real process-pool strong scaling of the elemental assembly.

    The elemental work is "trivially parallel" (the paper skips scalability
    tests for this reason); the runner measures the wall-clock curve on
    this machine for the Figure 2 analogue.

    One spawn pool (sized for the largest requested worker count) is
    created per :meth:`measure` sweep and reused for every point, and the
    packed element arrays are exposed to it through shared memory --
    ``runner.shm_bytes_shared`` / ``runner.pickle_bytes_saved`` counters
    record how much data stayed out of the pickle stream.

    ``assembly_mode="compiled"`` records the selected DSL ``variant``
    once in the parent and ships the picklable
    :class:`~repro.core.tape.TapeProgram` to every worker, which binds it
    to its chunk as a mesh of disjoint elements (:func:`_chunk_kernel`)
    and replays it -- the same :class:`~repro.core.tape.CompiledTape` a
    solver runs -- instead of the reference einsum path.
    ``assembly_mode="codegen"`` ships the
    :class:`~repro.core.codegen.CodegenProgram` instead; each worker
    re-``exec``-compiles the identical generated source once and runs the
    same :class:`~repro.core.codegen.GeneratedKernel`, C form included.

    Chunk dispatch is supervised (see :class:`WorkerPolicy`): worker
    crashes, hard deaths and hangs are detected by per-task deadlines,
    retried with bounded respawns, and finally recovered by in-process
    serial assembly.  Per-chunk RHS checksums are kept in
    :attr:`chunk_checksums` (``{workers: [(sx, sy, sz), ...]}``) so a
    recovered run can be proven bitwise identical to a fault-free one.
    A :class:`~repro.resilience.faults.FaultPlan` passed as ``fault_plan``
    is shipped to every worker for chaos testing.
    """

    def __init__(
        self,
        mesh: TetMesh,
        params: AssemblyParams,
        repeats: int = 3,
        seed: int = 0,
        assembly_mode: str = "reference",
        variant: str = "RSP",
        policy: Optional[WorkerPolicy] = None,
        fault_plan=None,
    ) -> None:
        if assembly_mode not in ("reference", "compiled", "codegen"):
            raise ValueError(
                f"unknown assembly_mode {assembly_mode!r}; "
                "expected 'reference', 'compiled' or 'codegen'"
            )
        self.mesh = mesh
        self.params = params
        self.repeats = _require_count("repeats", repeats)
        self.assembly_mode = assembly_mode
        self.variant = variant.upper()
        self.policy = policy or WorkerPolicy()
        self.fault_plan = fault_plan
        #: per-measure chunk fingerprints: {workers: [checksum per rank]}
        self.chunk_checksums: Dict[int, List[Tuple[float, float, float]]] = {}
        rng = np.random.default_rng(seed)
        self.velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
        self._pool = None
        self._pool_size = 0
        self._respawns = 0

    # -- pool lifecycle -------------------------------------------------
    def _spawn_pool(self, processes: int):
        pool = mp.get_context("spawn").Pool(processes=processes)
        pool.map(_worker_warmup, range(processes))
        return pool

    def _ensure_pool(self, processes: int) -> None:
        if self._pool is None or self._pool_size < processes:
            self._shutdown_pool(graceful=True)
            self._pool = self._spawn_pool(processes)
            self._pool_size = processes

    def _respawn_pool(self) -> None:
        """Replace a poisoned pool (dead/hung workers) with a fresh one."""
        self._shutdown_pool(graceful=False)
        time.sleep(self.policy.backoff(self._respawns))
        self._respawns += 1
        get_registry().counter("resilience.respawns").inc()
        self._pool = self._spawn_pool(self._pool_size)

    def _shutdown_pool(self, graceful: bool) -> None:
        if self._pool is None:
            return
        if graceful:
            self._pool.close()
        else:
            # terminate, never close+join: close() waits for in-flight
            # tasks, which deadlocks when a worker is hung or dead.
            self._pool.terminate()
        self._pool.join()
        self._pool = None

    # -- supervised dispatch --------------------------------------------
    def _run_supervised(
        self,
        chunk_args: List[Tuple],
        local_args: List[Tuple],
        cancel: Optional[CancelToken] = None,
    ) -> List[Tuple[float, List[dict], Tuple[float, float, float]]]:
        """Run every chunk to completion, through failures.

        ``chunk_args`` holds the picklable worker argument tuples (one per
        rank, ``attempt`` slot last); ``local_args`` the in-process
        :func:`_assemble_chunk` arguments of each rank (parent-side array
        views and the shipped program, never the fault plan) that the
        serial fallback runs.  Returns results in rank order; never
        returns a partial set.  A tripped ``cancel`` raises between
        supervision rounds (the caller's ``finally`` terminates the pool
        and releases shared memory).
        """
        registry = get_registry()
        nchunk = len(chunk_args)
        results: List = [None] * nchunk
        attempts = [0] * nchunk
        pending = list(range(nchunk))
        while pending:
            if cancel is not None:
                cancel.check()
            handles = {}
            for rank in pending:
                if self.fault_plan is not None:
                    self.fault_plan.note_worker_dispatch(rank, attempts[rank])
                args = chunk_args[rank][:-1] + (attempts[rank],)
                handles[rank] = self._pool.apply_async(_worker_assemble, (args,))
            failed: List[Tuple[int, str]] = []
            for rank in pending:
                try:
                    results[rank] = handles[rank].get(self.policy.task_timeout)
                except mp.TimeoutError:
                    failed.append((rank, "deadline"))
                except Exception as exc:  # crash raised inside the worker
                    failed.append((rank, type(exc).__name__))
            pending = []
            retry_ranks = []
            for rank, reason in failed:
                registry.counter("resilience.worker_failures").inc()
                attempts[rank] += 1
                action = (
                    "retry"
                    if attempts[rank] <= self.policy.max_retries
                    else "serial_fallback"
                )
                with get_tracer().span(
                    "WorkerFailure",
                    rank=rank,
                    attempt=attempts[rank] - 1,
                    reason=reason,
                    action=action,
                ):
                    pass
                if action == "retry":
                    registry.counter("resilience.retries").inc()
                    retry_ranks.append(rank)
                else:
                    registry.counter("resilience.fallbacks").inc()
            if failed:
                # any failure may leave hung/dead workers or orphaned
                # in-flight state behind: replace the whole pool.
                self._respawn_pool()
                pending = retry_ranks
            for rank, reason in failed:
                if attempts[rank] > self.policy.max_retries:
                    results[rank] = _assemble_chunk(*local_args[rank])
        return results

    def close(self) -> None:
        """Terminate any live pool immediately (idempotent).

        For standalone use outside ``measure`` (whose ``finally``
        block already calls this): drain paths and tests
        call ``close()`` to guarantee no worker processes outlive the
        runner.
        """
        self._shutdown_pool(graceful=False)
        self._pool_size = 0

    def measure(
        self,
        worker_counts: List[int],
        cancel: Optional[CancelToken] = None,
    ) -> List[ScalingPoint]:
        """Measure the strong-scaling curve over ``worker_counts``
        (distinct integers >= 1; anything else is a ``ValueError`` before
        any shared memory or pool exists).

        A tripped ``cancel`` token raises
        :class:`~repro.resilience.cancel.CooperativeCancel` between
        measured worker counts (and between supervision rounds inside
        one); the ``finally`` below still terminates the pool and
        releases every shared-memory segment, so cancellation never
        leaks ``/dev/shm`` blocks or worker processes.
        """
        for w in worker_counts:
            _require_count("worker count", w)
        if len(set(worker_counts)) != len(worker_counts):
            raise ValueError(f"duplicate worker counts in {worker_counts!r}")
        if not worker_counts:
            return []
        registry, tracer = get_registry(), get_tracer()
        xall = get_plan(self.mesh).packed_coords()
        uall = self.velocity[self.mesh.connectivity]
        traced = bool(tracer.enabled)
        nelem = self.mesh.nelem
        program = _chunk_program(
            self.assembly_mode, self.variant, self.params
        )

        x_shm = create_shared_memory(xall.nbytes)
        u_shm = create_shared_memory(uall.nbytes)
        raw: List[Tuple[int, float]] = []
        self.chunk_checksums = {}
        ok = False
        try:
            np.ndarray(xall.shape, dtype=np.float64, buffer=x_shm.buf)[...] = xall
            np.ndarray(uall.shape, dtype=np.float64, buffer=u_shm.buf)[...] = uall
            registry.counter("runner.shm_bytes_shared").inc(
                xall.nbytes + uall.nbytes
            )
            max_workers = max(worker_counts)
            if max_workers > 1:
                self._ensure_pool(max_workers)
            for w in worker_counts:
                if cancel is not None:
                    cancel.check()
                bounds = np.linspace(0, nelem, w + 1).astype(np.int64)
                args = [
                    (
                        rank,
                        x_shm.name,
                        u_shm.name,
                        nelem,
                        int(bounds[rank]),
                        int(bounds[rank + 1]),
                        self.params,
                        self.repeats,
                        traced,
                        program,
                        self.fault_plan,
                        0,  # attempt; rewritten per dispatch
                    )
                    for rank in range(w)
                ]
                local_args = [
                    (
                        rank,
                        xall[int(bounds[rank]) : int(bounds[rank + 1])],
                        uall[int(bounds[rank]) : int(bounds[rank + 1])],
                        self.params,
                        self.repeats,
                        traced,
                        program,
                    )
                    for rank in range(w)
                ]
                with tracer.span("measure", workers=w) as span:
                    t0 = time.perf_counter()
                    if w == 1:
                        results = [_assemble_chunk(*local_args[0])]
                    else:
                        results = self._run_supervised(args, local_args, cancel=cancel)
                    wall = time.perf_counter() - t0
                    if span is not None:
                        span.attributes["wall_seconds"] = wall
                registry.counter("runner.tasks").inc(w)
                registry.counter("runner.pickle_bytes_saved").inc(
                    (xall.nbytes + uall.nbytes) if w > 1 else 0
                )
                # merge per-rank timelines (worker pids relabelled to ranks)
                for rank, (_, rank_spans, _) in enumerate(results):
                    tracer.add_spans(rank_spans, pid=rank)
                self.chunk_checksums[w] = [cs for (_, _, cs) in results]
                raw.append((w, wall))
            ok = True
        finally:
            # graceful close only on success: close()+join() waits for
            # in-flight tasks and deadlocks if an exception left a hung or
            # dead worker behind -- terminate() on the error path.
            self._shutdown_pool(graceful=ok)
            self._pool_size = 0
            for shm in (x_shm, u_shm):
                release_shared_memory(shm)

        base_workers, base_wall = min(raw, key=lambda p: p[0])
        points = []
        for w, wall in raw:
            speedup = base_wall / wall
            points.append(
                ScalingPoint(
                    workers=w,
                    wall_seconds=wall,
                    melem_per_s=nelem * self.repeats / wall / 1e6,
                    speedup=speedup,
                    efficiency=speedup * base_workers / w,
                    baseline_workers=base_workers,
                )
            )
        return points
