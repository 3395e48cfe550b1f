"""Who owns lane memory: one aligned allocator, one cache budget, one
mesh binding.

The paper's method is "find where the temporaries live, then move them to
the fastest memory that holds them".  On the numpy substrate the
temporaries are the lane rows every executor computes in, and two things
decide how fast a ufunc streams through them:

* **Placement.**  numpy only guarantees 16-byte alignment (a fresh
  mmap-backed buffer sits at 16 mod 64), so on an AVX-512 core every
  64-byte vector access of every row splits a cache line.
  :func:`aligned_empty` is the one allocator of the kernel layer: every
  buffer a kernel computes in or binds starts on a cache line.  Lane
  counts are multiples of ``vector_dim``, so with ``vector_dim % 8 == 0``
  (64 B of float64) every row, every chunk slice ``[:, lo:lo + n]`` and
  the partial last chunk are aligned too -- :func:`check_aligned` asserts
  that where the chunks are bound.
* **Size.**  :data:`ARENA_BUDGET_BYTES` is the one arena budget: a chunk's
  rows must fit the per-core L2, and :func:`budget_chunk_groups` is the
  one rule that turns a program's bytes per lane into ``chunk_groups``.

:class:`MeshBound` is the part the two bound kernels
(:class:`~repro.core.tape.CompiledTape`,
:class:`~repro.core.codegen.GeneratedKernel`) share: the gather indices,
coordinate / velocity columns, ``(S, 1)`` scenario rows, deferred scatter
values and the plan's scatter pattern of one ``(plan, packing)`` pair,
plus the lock that makes a plan-cached kernel safe to call from two jobs.
How many scenarios a kernel sweeps and over which mesh are arguments of
this binding, not kinds of kernel: a solo sweep is the ``S = 1`` batch.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Optional, Tuple

import numpy as np

from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from .passes import is_scalar

__all__ = [
    "ALIGNMENT",
    "ARENA_BUDGET_BYTES",
    "MeshBound",
    "aligned_empty",
    "budget_chunk_groups",
    "check_aligned",
    "plan_cached",
]

#: cache-line size: the alignment of every lane buffer
ALIGNMENT = 64

#: arena budget of one chunk: this container's per-core L2 (measured
#: optimum for every variant and both back ends, EXPERIMENTS.md "Arena
#: placement")
ARENA_BUDGET_BYTES = 2 << 20


def aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)`` whose first byte sits on a cache line.

    Over-allocates a byte buffer by one line and returns an array over
    its aligned window (zero-size shapes included, which a slice would
    not move off the base pointer); the array keeps the buffer alive.
    """
    dtype = np.dtype(dtype)
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    raw = np.empty(math.prod(shape) * dtype.itemsize + ALIGNMENT, dtype=np.uint8)
    return np.ndarray(shape, dtype, buffer=raw, offset=-raw.ctypes.data % ALIGNMENT)


def check_aligned(arrays, vector_dim: int) -> None:
    """Assert every array of a bound chunk starts on a cache line.

    Only promised for ``vector_dim % 8 == 0`` (lane offsets are multiples
    of ``vector_dim`` float64 values); narrower groups run unaligned, as
    everything did before this module.
    """
    if vector_dim % 8:
        return
    for a in arrays:
        if a.ctypes.data % ALIGNMENT:
            raise AssertionError(
                f"lane buffer {a.shape} {a.dtype} is not "
                f"{ALIGNMENT}-byte aligned"
            )


def budget_chunk_groups(lane_bytes: int, vector_dim: int, ngroups: int) -> int:
    """Largest chunk (in element groups) whose arena of ``lane_bytes``
    per lane fits :data:`ARENA_BUDGET_BYTES`; at least one group, at most
    the mesh."""
    cg = ARENA_BUDGET_BYTES // max(1, int(lane_bytes) * int(vector_dim))
    return max(1, min(cg, int(ngroups)))


def plan_cached(plan, store: str, key, vector_dim, batch, make):
    """The bound kernel under ``key`` in the plan's ``store`` (``"tape"``
    or ``"codegen"``), built by ``make(packing)`` on a miss."""
    kern, event = getattr(plan, f"cached_{store}")(key), "cache_hits"
    if kern is None:
        event = "compiles"
        with get_tracer().span(
            f"{store}.compile", variant=key[0], vector_dim=int(vector_dim),
            scenarios=batch.size,
        ):
            kern = make(plan.packing(int(vector_dim)))
        getattr(plan, f"store_{store}")(key, kern)
    get_registry().counter(f"{store}.{event}").inc()
    return kern


class MeshBound:
    """A kernel bound to one ``(plan, packing)`` pair.

    Owns the mesh side of the binding -- gather indices ``_idx``
    (``(nnode_per_element, nlane)``), coordinate columns ``_ccols``,
    velocity columns ``_vcols`` (refreshed, never reallocated, per call;
    a generated kernel's spill rows ``_spill`` copy their nodes' columns),
    the deferred scatter values and the scatter index pattern shared
    through ``plan`` under the ``(variant, vector_dim)`` key,
    so an interpreted, a compiled and a generated sweep of one
    configuration build the pattern once between them.  Values are ``(S,
    ngroups, ncalls, vector_dim)``, each scenario's C-order flattening
    reproducing the accumulator's group-major temporal order, and the RHS
    ``(S, nnode, 3)``: a solo sweep is the ``S = 1`` batch, its caller's
    ``(nnode, 3)`` RHS viewed as ``rhs[None]``.  ``_scatter == "fused"`` marks a sweep whose kernel
    (:mod:`repro.core.native`) already reduced into ``_acc``; ``_values``
    is allocated by its first deferred sweep.

    The program's ``(S, 1)`` scenario-row stage lives here too:
    persistent rows ``_Q``, re-evaluated on every sweep from the
    ``param_rows`` (varying name -> ``(S, 1)`` array,
    :meth:`~repro.core.batch.ScenarioBatch.param_rows`) the call carries
    (none for a program without varying parameters).

    A bound kernel replays in buffers it owns, and the plan hands the same
    kernel to every caller on the mesh: ``lock`` is held for the span of
    a sweep (input refresh to flush), so concurrent jobs serialize on the
    kernel instead of corrupting each other.  Everything that belongs to
    one call travels with the call: ``param_rows`` is installed only under
    the lock, and ``profiler`` (``None`` or a
    :class:`~repro.obs.profiler.TapeProfiler`) never leaves the sweep.

    Subclasses supply the back end of :meth:`_sweep`: ``_span`` (span
    name; its prefix names the counters), ``_mode`` (the profile's mode),
    ``_lane_bytes`` (arena bytes per lane of one slab),
    ``_default_cg(nthreads)`` (the chunk size nobody asked for) and
    ``_tasks(cg, nslabs, profile)`` -- zero-argument callables covering
    the mesh, one per slab of sequential chunks.
    """

    _span = ""
    _mode = ""
    _lane_bytes = 0
    #: where this sweep's scatter values went, and the fused accumulator
    _scatter, _acc = "deferred", None
    #: each spill row's node, and its three entries' flat indices (none: no split)
    _spill = _spill_at = np.zeros(0, dtype=np.int64)

    def __init__(self, program, plan, packing) -> None:
        self.program = program
        self.plan = plan
        self.packing = packing
        self.lock = threading.Lock()
        mesh = plan.mesh
        self.nnode = int(mesh.nnode)
        self.ncomp = 3
        self.ngroups = packing.ngroups
        self.vector_dim = int(packing.vector_dim)
        self.nlane = self.ngroups * self.vector_dim
        #: scenarios per sweep
        self.S = int(program.scenarios)
        nnpe = program.nnode_per_element
        ncalls = self._ncalls = len(program.scatter_calls)

        lane_ids, active = packing.lane_order()
        conn = mesh.connectivity[lane_ids]  # (nlane, nnpe)
        self._idx = aligned_empty((nnpe, self.nlane), dtype=np.int64)
        self._idx[...] = conn.T
        self._ccols = aligned_empty((3, self.nnode))
        self._ccols[...] = mesh.coords.T
        self._Q = [aligned_empty((self.S, 1)) for _ in range(program.nq)]

        shape = (self.ngroups, ncalls, self.vector_dim)  # of a sweep's values
        signature = (self.ngroups, tuple(program.scatter_calls))
        key = (program.variant, self.vector_dim)
        pattern = plan.scatter_pattern(key)
        registry = get_registry()
        if pattern is None:
            trash = self.nnode * self.ncomp
            indices = np.empty(shape, dtype=np.int64)
            for c, (slot, comp) in enumerate(program.scatter_calls):
                icol = np.where(active, conn[:, slot] * self.ncomp + comp, trash)
                indices[:, c, :] = icol.reshape(self.ngroups, self.vector_dim)
            pattern = plan.store_scatter_pattern(key, indices.reshape(-1), signature)
            registry.counter("scatter.pattern_builds").inc()
        else:
            if pattern.signature != signature:
                raise RuntimeError(
                    "scatter pattern mismatch: cached plan pattern does not "
                    f"match the {type(self).__name__}'s call order"
                )
            registry.counter("scatter.pattern_reuses").inc()
        self._pattern = pattern

        self._sv: Optional[np.ndarray] = None
        self._values_shape: Tuple[int, ...] = (self.S,) + shape
        self._rhs_shape: Tuple[int, ...] = (self.S, self.nnode, self.ncomp)
        self._velocity_shape: Tuple[int, ...] = (self.nnode, 3)
        if program.velocity_rank == "full":
            self._velocity_shape = (self.S,) + self._velocity_shape
        self._vcols = aligned_empty((3,) + self._velocity_shape[:-1])

    @property
    def _values(self) -> np.ndarray:
        """The deferred scatter values, allocated by their first reader."""
        if self._sv is None:
            self._sv = aligned_empty(self._values_shape)
        return self._sv

    @property
    def report(self):
        return self.program.report

    def _resolve_cg(self, chunk_groups: Optional[int], nthreads: int) -> int:
        """Explicit argument > the back end's default, clamped to the mesh."""
        cg = self._default_cg(nthreads) if chunk_groups is None else chunk_groups
        return max(1, min(int(cg), self.ngroups))

    def _budget_cg(self) -> int:
        return budget_chunk_groups(self._lane_bytes, self.vector_dim, self.ngroups)

    def _count(self) -> None:
        registry = get_registry()
        prefix = self._span.partition(".")[0]
        registry.counter(f"{prefix}.executions").inc()
        registry.counter(f"{prefix}.scenarios").inc(self.S)
        registry.counter(f"{prefix}.lanes_executed").inc(self.nlane)

    def _chunks(self, cg: int) -> list:
        """``[g0, g1)`` group ranges of a ``cg``-group chunking."""
        bounds = list(range(0, self.ngroups, cg)) + [self.ngroups]
        return list(zip(bounds[:-1], bounds[1:]))

    def _sweep(
        self,
        executor: str,
        velocity: np.ndarray,
        rhs: Optional[np.ndarray],
        chunk_groups: Optional[int],
        num_threads: Optional[int] = None,
        param_rows=None,
        profiler=None,
    ) -> np.ndarray:
        """One assembly sweep, accumulating into ``rhs`` in place.

        Its tasks (:func:`~repro.parallel.threads.fork_join`) write disjoint
        memory -- a Python-form slab its slices of the deferred values
        buffer, a C-form group range its rows of the accumulator -- and the
        flush runs serially afterwards, so chunk size, thread count and
        schedule cannot change a bit of the result.
        """
        from ..parallel import threads

        velocity = self._check_velocity(velocity)
        if rhs is None:
            rhs = np.zeros(self._rhs_shape)
        elif rhs.shape != self._rhs_shape:
            raise ValueError(f"rhs must be {self._rhs_shape}, got {rhs.shape}")
        nthreads = 1
        if executor == "threads":
            nthreads = threads.resolve_num_threads(num_threads)
        cg = self._resolve_cg(chunk_groups, nthreads)
        nchunks = -(-self.ngroups // cg)
        nslabs = min(nthreads, nchunks)
        arena_bytes = self._lane_bytes * cg * self.vector_dim
        with self.lock:
            with get_tracer().span(
                self._span + "_chunked" * (executor == "threads"),
                variant=self.program.variant,
                scenarios=self.S,
                vector_dim=self.vector_dim,
                nlane=self.nlane,
                chunks=nchunks,
                threads=nthreads,
                chunk_groups=cg,
                arena_bytes=arena_bytes,
            ):
                self._refresh_inputs(velocity, param_rows)
                profile = None if profiler is None else profiler.for_program(
                    self.program, self.vector_dim, self._mode, executor
                )
                threads.fork_join(self._tasks(cg, nslabs, profile))
                self._flush(rhs, profile)
                if profile is not None:
                    profile.finish_execution()
        get_registry().gauge(f"arena.bytes.{self.program.variant}").set(arena_bytes)
        self._count()
        return rhs

    def execute(
        self,
        velocity: np.ndarray,
        rhs: Optional[np.ndarray] = None,
        chunk_groups: Optional[int] = None,
        param_rows=None,
        profiler=None,
    ) -> np.ndarray:
        """Assemble the momentum RHS ``(S, nnode, 3)`` of the batch whose
        varying values ``param_rows`` carries, accumulating into ``rhs`` in
        place."""
        return self._sweep("serial", velocity, rhs, chunk_groups, None, param_rows, profiler)

    def execute_chunked(
        self,
        velocity: np.ndarray,
        rhs: Optional[np.ndarray] = None,
        num_threads: Optional[int] = None,
        chunk_groups: Optional[int] = None,
        param_rows=None,
        profiler=None,
    ) -> np.ndarray:
        """Assemble in ``num_threads`` slabs (default: the CPU count), chunks
        of one slab running sequentially in its private rows, the slabs on
        :func:`~repro.parallel.threads.fork_join` (an adopted C form runs its
        group ranges instead).  Bitwise identical to :meth:`execute`."""
        return self._sweep("threads", velocity, rhs, chunk_groups, num_threads, param_rows,
                           profiler)

    def _check_velocity(self, velocity: np.ndarray) -> np.ndarray:
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.shape != self._velocity_shape:
            raise ValueError(f"velocity must be {self._velocity_shape}, got {velocity.shape}")
        return velocity

    def _refresh_inputs(self, velocity: np.ndarray, param_rows) -> None:
        """Refresh the velocity columns (component-major, node-minor) and
        evaluate the ``(S, 1)`` scenario-row stage in place: elementwise
        ``np.float64`` ufuncs over per-scenario rows, each row computing
        exactly the scalar chain a recording that folded the parameter
        would have folded for that scenario."""
        n = self.nnode
        np.copyto(self._vcols[..., :n], np.moveaxis(velocity, -1, 0))
        for row in self._vcols.reshape(-1, self._vcols.shape[-1]) if len(self._spill) else ():
            np.take(row[:n], self._spill, out=row[n:], mode="clip")  # spill rows' copies
        Q = self._Q

        def ref(r):
            return r if is_scalar(r) else Q[r]

        for op in self.program.param_ops:
            tag = op[0]
            if tag == "rp":
                np.copyto(Q[op[2]], param_rows[op[1]])
            elif tag == "bin":
                getattr(np, op[1])(ref(op[2]), ref(op[3]), out=Q[op[4]])
            elif tag == "un":
                getattr(np, op[1])(ref(op[2]), out=Q[op[3]])
            else:  # sel: x is srow (scalar x folds at record time)
                _, x, a, b, thresh, out = op
                m = np.greater(Q[x], thresh)
                Q[out][...] = ref(b)
                np.copyto(Q[out], ref(a), where=m)

    def _flush(self, rhs: np.ndarray, profile=None) -> None:
        """Reduce this sweep's scatter values into ``rhs``: one ``bincount``
        of :mod:`repro.fem.plan` per scenario row over the one shared
        pattern, or the accumulator a fused sweep reduced into -- ``(0 +
        contributions) + rhs`` both."""
        from ..fem.plan import flush_pattern
        from ..parallel import threads

        with get_tracer().span("scatter.flush", variant=self.program.variant, scenarios=self.S):
            t0 = time.perf_counter()
            if self._scatter == "fused":
                threads.replay_spill(self._acc, self._spill_at, 3 * self.nnode)
                rhs += self._acc[..., :self.nnode, :]
                counter = get_registry().counter
                counter("scatter.fused_sweeps").inc()
                counter("scatter.values_reduced").inc(math.prod(self._values_shape))
                return
            values = self._values.reshape(self.S, -1)
            for row, out in zip(values, rhs):
                flush_pattern(self._pattern, row, out, self.nnode, self.ncomp)
            if profile is not None:
                # values read + int64 index read + rhs accumulate traffic
                moved = 2.0 * values.nbytes + rhs.nbytes
                profile.record_flush(time.perf_counter() - t0, moved)
