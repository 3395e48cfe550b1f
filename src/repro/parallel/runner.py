"""Parallel assembly drivers.

Two paths exercise the paper's pure-MPI execution shape:

* :func:`assemble_partitioned` -- deterministic simulated-MPI assembly: the
  mesh is partitioned, every "rank" assembles its subdomain RHS with the
  vectorized reference kernel, and interface nodes are reduced with the
  two-phase halo exchange.  Tests verify bit-level consistency with the
  serial assembly (no lost updates -- the failure mode Alya's scalar
  scatter loop protects against).
* :class:`MultiprocessRunner` -- real ``multiprocessing`` strong-scaling
  runs for the wall-clock analogue of Figure 2 (the simulated turbo-binned
  curve lives in :meth:`repro.machine.cpu.CpuModel.scaling_curve`).

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
from ..fem.plan import get_plan, segment_scatter
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.spans import NULL_TRACER, Tracer
from ..physics.momentum import AssemblyParams, element_rhs
from ..resilience.cancel import CancelToken
from .comm import SimComm
from .halo import build_plans, post_interface, reduce_interface
from .partition import rcb_partition
from .shutdown import create_shared_memory, release_shared_memory

__all__ = [
    "assemble_partitioned",
    "MultiprocessRunner",
    "ScalingPoint",
    "WorkerPolicy",
]


def assemble_partitioned(
    mesh: TetMesh,
    velocity: np.ndarray,
    params: AssemblyParams,
    nranks: int,
    labels: Optional[np.ndarray] = None,
    tracer=None,
    metrics: Optional[MetricsRegistry] = None,
) -> np.ndarray:
    """Assemble the momentum RHS over ``nranks`` simulated MPI ranks.

    Returns the *global* RHS gathered from the owning subdomains; interface
    nodes are reduced by halo exchange and must equal the serial assembly.
    Halo traffic is accounted in the ``halo.bytes_exchanged`` /
    ``halo.messages`` counters of ``metrics`` (process-wide registry by
    default); per-rank work is recorded as ``rank_assemble`` spans when a
    ``tracer`` is passed.

    Each rank assembles in two stages to overlap the interface exchange
    with computation (Alya's communication-hiding shape): the *halo*
    elements -- the only ones contributing to interface nodes -- are
    assembled and their partial sums posted first, then the *interior*
    elements are assembled while the messages are in flight.  The final
    local field comes from one monolithic scatter over the rank's full
    element list with the staged elemental values stitched back in
    element order, so the split cannot change a single bit relative to
    the unstaged assembly.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    registry = get_registry() if metrics is None else metrics
    if labels is None:
        labels = rcb_partition(mesh, nranks)
    plans = build_plans(mesh, labels)
    packed_coords = get_plan(mesh).packed_coords()
    partials: List[np.ndarray] = [None] * len(plans)  # type: ignore[list-item]

    def phase(comm: SimComm):
        plan = plans[comm.rank]
        nelem_rank = int(len(plan.element_ids))
        halo_ids = plan.halo_elements
        int_ids = plan.interior_elements
        registry.counter("locality.halo_elements").inc(int(halo_ids.size))
        registry.counter("locality.interior_elements").inc(int(int_ids.size))
        if nelem_rank:
            registry.gauge("locality.overlap_efficiency").set(
                int_ids.size / nelem_rank
            )
        with tracer.span(
            "rank_assemble", rank=comm.rank, nelem=nelem_rank
        ):
            xel = packed_coords[plan.element_ids]
            uel = velocity[mesh.connectivity[plan.element_ids]]
            nloc = len(plan.node_map)
            elem = np.empty((nelem_rank, 4, 3))
            # Stage 1: halo elements only.  Interface nodes receive
            # contributions from no other elements, and bincount sums in
            # input order, so the halo-only scatter reproduces the full
            # scatter bitwise at every interface node -- safe to post.
            with tracer.span(
                "halo_assemble", rank=comm.rank, nelem=int(halo_ids.size)
            ):
                elem[halo_ids] = element_rhs(
                    xel[halo_ids], uel[halo_ids], params
                )
                halo_field = segment_scatter(
                    plan.local_connectivity[halo_ids].ravel(),
                    elem[halo_ids].reshape(-1, 3),
                    nloc,
                )
            post_interface(comm, plan, halo_field)
            # Stage 2: interior elements, overlapped with the in-flight
            # exchange (the simulated communicator buffers sends, so the
            # real-MPI analogue is Isend/Irecv progressing here).
            with tracer.span(
                "interior_assemble", rank=comm.rank, nelem=int(int_ids.size)
            ):
                elem[int_ids] = element_rhs(
                    xel[int_ids], uel[int_ids], params
                )
            # Monolithic scatter over the stitched elemental values: one
            # bincount in seed element order, bitwise equal to the
            # unstaged assembly.
            partials[comm.rank] = segment_scatter(
                plan.local_connectivity.ravel(),
                elem.reshape(-1, 3),
                nloc,
            )
        for idx in plan.neighbours.values():
            registry.counter("halo.bytes_exchanged").inc(idx.size * 3 * 8)
            registry.counter("halo.messages").inc()
        return None

    def phase2(comm: SimComm):
        plan = plans[comm.rank]
        partials[comm.rank] = reduce_interface(comm, plan, partials[comm.rank])
        return None

    world: Dict[str, object] = {}
    comms = [SimComm(r, len(plans), world) for r in range(len(plans))]
    for c in comms:
        phase(c)
    for c in comms:
        phase2(c)

    rhs = np.zeros((mesh.nnode, 3))
    filled = np.zeros(mesh.nnode, dtype=bool)
    for plan in plans:
        sel = ~filled[plan.node_map]
        rhs[plan.node_map[sel]] = partials[plan.rank][sel]
        filled[plan.node_map[sel]] = True
    return rhs


# ---------------------------------------------------------------------------
# Real multiprocessing scaling
# ---------------------------------------------------------------------------


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
    form when a compiler exists) and, each node receiving exactly one
    lane, the chunk's ``(4n, 3)`` RHS *is* the ``(n, 4, 3)`` elemental
    result: per bin the flush adds the scatter calls in call order.  A
    generated program carries its group size; a tape takes ``vector_dim``
    (default: the paper's CPU choice).
    """
    from ..core.codegen import CodegenProgram, GeneratedKernel
    from ..core.tape import CompiledTape
    from ..core.unified import CPU_VECTOR_DIM

    n = len(xel)
    mesh = TetMesh(
        xel.reshape(-1, 3), np.arange(4 * n).reshape(n, 4), validate=False
    )
    plan = get_plan(mesh)
    if isinstance(program, CodegenProgram):
        return GeneratedKernel(program, plan, plan.packing(program.vector_dim))
    return CompiledTape(
        program, plan, plan.packing(int(vector_dim or CPU_VECTOR_DIM))
    )


def _assemble_chunk(
    rank: int,
    xel: np.ndarray,
    uel: np.ndarray,
    params: AssemblyParams,
    repeats: int,
    traced: bool,
    program=None,
    profiled: bool = False,
) -> Tuple[float, List[dict], Tuple[float, float, float], List[dict], dict]:
    """Assemble one element chunk ``repeats`` times.

    Returns ``(seconds, spans, checksum, profiles, metrics)`` where
    ``checksum`` is the component-wise sum of the chunk's elemental RHS --
    a deterministic fingerprint the chaos tests compare bitwise between
    fault-free and fault-recovered runs (the serial fallback reproduces it
    exactly) -- and ``profiles``/``metrics`` are this rank's op-level
    profile snapshots and published metric snapshot when ``profiled``
    (empty otherwise); the parent folds them through
    :meth:`~repro.obs.profiler.TapeProfiler.merge` and the existing
    :meth:`~repro.obs.metrics.MetricsRegistry.merge` reduction.

    With a shipped program (:class:`~repro.core.tape.TapeProgram` or
    :class:`~repro.core.codegen.CodegenProgram`) the chunk is bound once
    by :func:`_chunk_kernel` and swept ``repeats`` times -- a generated
    program re-``exec``-compiles in the worker (deterministic emission, so
    every rank compiles the identical module and hits the process-local
    code cache); otherwise the vectorized reference
    :func:`~repro.physics.momentum.element_rhs` runs (op-level profiling
    needs an op/statement cost table, so it covers the compiled and
    codegen modes only).  A compiler child the kernel forked is
    terminated before the task returns: pool workers exit through
    ``os._exit``, past :mod:`repro.core.native`'s ``atexit`` hook.
    """
    tracer = Tracer(pid=rank) if traced else NULL_TRACER
    kern = profiler = None
    if program is not None:
        kern = _chunk_kernel(program, xel)
        if profiled:
            from ..obs.profiler import TapeProfiler

            profiler = TapeProfiler()
    elem = None
    t0 = time.perf_counter()
    try:
        with tracer.span("rank", rank=rank, nelem=int(len(xel)), repeats=repeats):
            for rep in range(repeats):
                with tracer.span("assemble_chunk", rep=rep):
                    if kern is not None:
                        elem = kern.execute(
                            uel.reshape(-1, 3), profiler=profiler
                        ).reshape(xel.shape)
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
    profile_snap: List[dict] = []
    metrics_snap: dict = {}
    if profiler is not None:
        profile_snap = profiler.snapshot()
        local = MetricsRegistry()
        profiler.publish(local)
        metrics_snap = local.snapshot()
    return seconds, tracer.export(), checksum, profile_snap, metrics_snap


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
        profiled,
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
            profiled,
        )
    finally:
        del xall, uall
        x_shm.close()
        u_shm.close()


def _worker_warmup(_rank: int) -> int:
    """Touch numpy in the pool worker so imports don't pollute timings."""
    return int(np.zeros(1)[0])


def _worker_batch_shard(args: Tuple):
    """Pool worker: assemble one contiguous scenario shard of a batch.

    Mesh arrays and the velocity field come in through shared memory
    (copied out before the segment closes -- the assembler caches keyed
    on them must outlive the handle); only the shard's
    :class:`AssemblyParams` and scalars cross the pickle boundary.  The
    shard runs the ordinary batched
    :meth:`~repro.core.unified.UnifiedAssembler.run_batch` path at the
    parent's resolved ``vector_dim``, so concatenating shard results in
    rank order is bitwise identical to one whole-batch run (batched
    results are per-scenario bit-identical regardless of ``S``).
    """
    (
        rank,
        c_name,
        k_name,
        v_name,
        nnode,
        nelem,
        scenarios,
        variant,
        mode,
        vector_dim,
        velocity_rank,
        total_s,
        start,
    ) = args
    c_shm = shared_memory.SharedMemory(name=c_name)
    k_shm = shared_memory.SharedMemory(name=k_name)
    v_shm = shared_memory.SharedMemory(name=v_name)
    try:
        coords = np.ndarray(
            (nnode, 3), dtype=np.float64, buffer=c_shm.buf
        ).copy()
        conn = np.ndarray(
            (nelem, 4), dtype=np.int64, buffer=k_shm.buf
        ).copy()
        if velocity_rank == "vec":
            vel = np.ndarray(
                (nnode, 3), dtype=np.float64, buffer=v_shm.buf
            ).copy()
        else:
            vel = np.ndarray(
                (total_s, nnode, 3), dtype=np.float64, buffer=v_shm.buf
            )[start : start + len(scenarios)].copy()
    finally:
        c_shm.close()
        k_shm.close()
        v_shm.close()
    from ..core.batch import ScenarioBatch
    from ..core.unified import UnifiedAssembler

    mesh = TetMesh(coords, conn, validate=False)
    batch = ScenarioBatch(scenarios)
    asm = UnifiedAssembler(
        mesh, batch[0], mode=mode, vector_dim=vector_dim
    )
    t0 = time.perf_counter()
    rhs = asm.run_batch(variant, batch, vel)
    return time.perf_counter() - t0, rhs


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

    ``ordering`` (any :data:`repro.fem.reorder.STRATEGIES` entry) permutes
    the packed element arrays along the named space-filling curve before
    chunking, so each worker sweeps a spatially contiguous slab.

    ``profile=True`` (compiled and codegen modes) attaches op-level
    software counters to every rank's kernel:
    per-rank profiles return with the results and are folded into
    :attr:`profiler` (op detail) and the metrics registry (published
    ``profile.*`` counters, reduced through
    :meth:`~repro.obs.metrics.MetricsRegistry.merge` -- the same path
    per-rank span/metric sets already take).  ``prometheus_path`` makes
    long campaigns refresh a Prometheus textfile after each measured
    point (at most once per ``prometheus_interval`` seconds).
    """

    def __init__(
        self,
        mesh: TetMesh,
        params: AssemblyParams,
        repeats: int = 3,
        seed: int = 0,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        assembly_mode: str = "reference",
        variant: str = "RSP",
        policy: Optional[WorkerPolicy] = None,
        fault_plan=None,
        ordering: str = "none",
        profile: bool = False,
        profiler=None,
        prometheus_path: Optional[str] = None,
        prometheus_interval: float = 5.0,
    ) -> None:
        if assembly_mode not in ("reference", "compiled", "codegen"):
            raise ValueError(
                f"unknown assembly_mode {assembly_mode!r}; "
                "expected 'reference', 'compiled' or 'codegen'"
            )
        from ..fem.reorder import STRATEGIES

        if ordering not in STRATEGIES:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {STRATEGIES}"
            )
        self.mesh = mesh
        self.params = params
        self.repeats = int(repeats)
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._metrics = metrics
        self.assembly_mode = assembly_mode
        self.variant = variant.upper()
        self.policy = policy or WorkerPolicy()
        self.fault_plan = fault_plan
        self.ordering = ordering
        self.profile = bool(profile) or profiler is not None
        if self.profile and self.assembly_mode not in ("compiled", "codegen"):
            raise ValueError(
                "profile=True requires assembly_mode='compiled' or "
                "'codegen': op-level profiling reads the program's "
                "op/statement cost table"
            )
        if self.profile and profiler is None:
            from ..obs.profiler import TapeProfiler

            profiler = TapeProfiler()
        #: merged op-level profiles of every profiled rank (all counts)
        self.profiler = profiler
        self._prom = None
        if prometheus_path is not None:
            from ..obs.export import PrometheusExporter

            self._prom = PrometheusExporter(
                prometheus_path,
                metrics=self._metrics,
                interval=prometheus_interval,
            )
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

    def _respawn_pool(self, registry: MetricsRegistry) -> None:
        """Replace a poisoned pool (dead/hung workers) with a fresh one."""
        self._shutdown_pool(graceful=False)
        time.sleep(self.policy.backoff(self._respawns))
        self._respawns += 1
        registry.counter("resilience.respawns").inc()
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
        serial_chunks: List[Tuple[np.ndarray, np.ndarray]],
        registry: MetricsRegistry,
        cancel: Optional[CancelToken] = None,
    ) -> List[Tuple[float, List[dict], Tuple[float, float, float]]]:
        """Run every chunk to completion, through failures.

        ``chunk_args`` holds the picklable worker argument tuples (one per
        rank, ``attempt`` slot last); ``serial_chunks`` the parent-side
        array views used by the in-process fallback.  Returns results in
        rank order; never returns a partial set.  A tripped ``cancel``
        raises between supervision rounds (the caller's ``finally``
        terminates the pool and releases shared memory).
        """
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
                with self.tracer.span(
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
                self._respawn_pool(registry)
                pending = retry_ranks
            for rank, reason in failed:
                if attempts[rank] > self.policy.max_retries:
                    xel, uel = serial_chunks[rank]
                    results[rank] = _assemble_chunk(
                        rank,
                        xel,
                        uel,
                        self.params,
                        self.repeats,
                        bool(self.tracer.enabled),
                        program=chunk_args[rank][10],
                        profiled=bool(chunk_args[rank][9]),
                    )
        return results

    def run_batch(
        self,
        batch,
        workers: int,
        velocity: Optional[np.ndarray] = None,
        vector_dim: Optional[int] = None,
    ) -> np.ndarray:
        """Shard ``S`` scenarios across the pool -> ``(S, nnode, 3)``.

        Scenarios are split into ``workers`` contiguous shards (scenario
        order preserved); each worker assembles its shard through one
        batched :meth:`~repro.core.unified.UnifiedAssembler.run_batch`
        call at a common ``vector_dim`` resolved once in the parent, and
        results are concatenated deterministically in shard order --
        bitwise identical to a single whole-batch run.  A failed or
        timed-out shard falls back to in-process assembly (counted in
        ``resilience.fallbacks``); ``velocity`` is one shared
        ``(nnode, 3)`` field (default: the runner's seeded field) or
        per-scenario ``(S, nnode, 3)``.
        """
        from ..core.batch import ScenarioBatch
        from ..core.unified import UnifiedAssembler

        if self.assembly_mode not in ("compiled", "codegen"):
            raise ValueError(
                "run_batch requires assembly_mode='compiled' or 'codegen' "
                f"(got {self.assembly_mode!r})"
            )
        if not isinstance(batch, ScenarioBatch):
            batch = ScenarioBatch(batch)
        registry = get_registry() if self._metrics is None else self._metrics
        S = batch.size
        nnode, nelem = self.mesh.nnode, self.mesh.nelem
        if velocity is None:
            velocity = self.velocity
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.shape == (nnode, 3):
            velocity_rank = "vec"
        elif velocity.shape == (S, nnode, 3):
            velocity_rank = "full"
        else:
            raise ValueError(
                f"velocity must be ({nnode}, 3) shared or ({S}, {nnode}, 3) "
                f"per-scenario, got {velocity.shape}"
            )
        parent = UnifiedAssembler(
            self.mesh,
            batch[0],
            mode=self.assembly_mode,
            vector_dim=vector_dim,
        )
        vd = parent.resolve_vector_dim(self.variant, scenarios=S)
        parent.vector_dim = vd  # pin: shard fallbacks must not re-resolve
        w = max(1, min(int(workers), S))
        registry.counter("runner.batch_tasks").inc(w)
        registry.counter("runner.batch_scenarios").inc(S)
        if w == 1:
            return parent.run_batch(self.variant, batch, velocity)

        bounds = np.linspace(0, S, w + 1).astype(np.int64)
        shards = [
            (int(bounds[r]), int(bounds[r + 1])) for r in range(w)
        ]
        coords = np.ascontiguousarray(self.mesh.coords, dtype=np.float64)
        conn = np.ascontiguousarray(self.mesh.connectivity, dtype=np.int64)
        c_shm = create_shared_memory(coords.nbytes)
        k_shm = create_shared_memory(conn.nbytes)
        v_shm = create_shared_memory(velocity.nbytes)
        rhs = np.empty((S, nnode, 3))
        ok = False
        try:
            np.ndarray(coords.shape, np.float64, buffer=c_shm.buf)[...] = coords
            np.ndarray(conn.shape, np.int64, buffer=k_shm.buf)[...] = conn
            np.ndarray(velocity.shape, np.float64, buffer=v_shm.buf)[...] = (
                velocity
            )
            registry.counter("runner.shm_bytes_shared").inc(
                coords.nbytes + conn.nbytes + velocity.nbytes
            )
            self._ensure_pool(w)
            with self.tracer.span(
                "runner_batch", scenarios=S, workers=w, vector_dim=vd
            ):
                handles = {}
                for rank, (start, stop) in enumerate(shards):
                    args = (
                        rank,
                        c_shm.name,
                        k_shm.name,
                        v_shm.name,
                        nnode,
                        nelem,
                        list(batch.scenarios[start:stop]),
                        self.variant,
                        self.assembly_mode,
                        vd,
                        velocity_rank,
                        S,
                        start,
                    )
                    handles[rank] = self._pool.apply_async(
                        _worker_batch_shard, (args,)
                    )
                failed = []
                for rank, (start, stop) in enumerate(shards):
                    try:
                        _, shard_rhs = handles[rank].get(
                            self.policy.task_timeout
                        )
                        rhs[start:stop] = shard_rhs
                    except Exception:
                        failed.append(rank)
                if failed:
                    self._respawn_pool(registry)
                for rank in failed:
                    # deterministic in-process recovery: same batched
                    # path, same vector_dim, same shard -> same bits
                    registry.counter("resilience.fallbacks").inc()
                    start, stop = shards[rank]
                    sub = ScenarioBatch(batch.scenarios[start:stop])
                    v_s = (
                        velocity
                        if velocity_rank == "vec"
                        else velocity[start:stop]
                    )
                    rhs[start:stop] = parent.run_batch(self.variant, sub, v_s)
            ok = True
        finally:
            self._shutdown_pool(graceful=ok)
            self._pool_size = 0
            for shm in (c_shm, k_shm, v_shm):
                release_shared_memory(shm)
        return rhs

    def close(self) -> None:
        """Terminate any live pool immediately (idempotent).

        For standalone use outside ``measure``/``run_batch`` (whose
        ``finally`` blocks already call this): drain paths and tests
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
        """Measure the strong-scaling curve over ``worker_counts``.

        A tripped ``cancel`` token raises
        :class:`~repro.resilience.cancel.CooperativeCancel` between
        measured worker counts (and between supervision rounds inside
        one); the ``finally`` below still terminates the pool and
        releases every shared-memory segment, so cancellation never
        leaks ``/dev/shm`` blocks or worker processes.
        """
        if not worker_counts:
            return []
        registry = get_registry() if self._metrics is None else self._metrics
        xall = get_plan(self.mesh).packed_coords()
        uall = self.velocity[self.mesh.connectivity]
        if self.ordering != "none":
            # SFC-permute the element packs so each worker's contiguous
            # chunk is also spatially contiguous (RCM atoms renumber
            # nodes, which the per-element packs have already gathered
            # away -- only the curve part affects chunk locality here).
            from ..fem.reorder import _parse_strategy, element_order

            sfc, _ = _parse_strategy(self.ordering)
            if sfc is not None:
                order = element_order(self.mesh, sfc)
                xall = xall[order]
                uall = uall[order]
                registry.counter("locality.runner_reorders").inc()
        traced = bool(self.tracer.enabled)
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
                        self.profile,
                        program,
                        self.fault_plan,
                        0,  # attempt; rewritten per dispatch
                    )
                    for rank in range(w)
                ]
                serial_chunks = [
                    (
                        xall[int(bounds[rank]) : int(bounds[rank + 1])],
                        uall[int(bounds[rank]) : int(bounds[rank + 1])],
                    )
                    for rank in range(w)
                ]
                with self.tracer.span("measure", workers=w) as span:
                    t0 = time.perf_counter()
                    if w == 1:
                        results = [
                            _assemble_chunk(
                                0,
                                xall,
                                uall,
                                self.params,
                                self.repeats,
                                traced,
                                program,
                                self.profile,
                            )
                        ]
                    else:
                        results = self._run_supervised(
                            args, serial_chunks, registry, cancel=cancel
                        )
                    wall = time.perf_counter() - t0
                    if span is not None:
                        span.attributes["wall_seconds"] = wall
                registry.counter("runner.tasks").inc(w)
                registry.counter("runner.pickle_bytes_saved").inc(
                    (xall.nbytes + uall.nbytes) if w > 1 else 0
                )
                # merge per-rank timelines (worker pids relabelled to ranks)
                for rank, (_, rank_spans, _, _, _) in enumerate(results):
                    self.tracer.add_spans(rank_spans, pid=rank)
                self.chunk_checksums[w] = [cs for (_, _, cs, _, _) in results]
                # fold per-rank profiles + published metrics into the
                # parent (the existing cross-process metric reduction)
                for (_, _, _, psnap, msnap) in results:
                    if psnap and self.profiler is not None:
                        self.profiler.merge(psnap)
                    if msnap:
                        registry.merge(msnap)
                if self._prom is not None:
                    self._prom.maybe_write()
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

        if self._prom is not None:
            self._prom.flush()
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
