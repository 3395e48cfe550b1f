"""GIL-free threaded execution substrate for compiled kernel tapes.

The multiprocess runner (:mod:`repro.parallel.runner`) pays spawn, pickle
and shared-memory costs that only amortize on large meshes.  For the
compiled tape path there is a zero-pickle alternative: numpy ufuncs
release the GIL while they crunch, so chunks of element groups replayed
on a plain :class:`~concurrent.futures.ThreadPoolExecutor` genuinely
overlap -- no processes, no serialization, shared read-only mesh arrays.

This module owns the thread-level plumbing used by
:meth:`repro.core.tape.CompiledTape.execute_chunked`:

* :func:`get_thread_pool` -- one process-wide pool per thread count,
  reused across assemblies (thread spawn is ~100us; a steady-state
  time-stepper must not pay it per step).
* :class:`SlabPool` -- preallocated per-thread arena slabs
  (``(nbufs, chunk_lanes)`` scratch + bool mask), handed out through a
  queue so each in-flight chunk owns private scratch memory sized to
  stay cache-resident.
* :func:`default_chunk_groups` -- the chunk-size heuristic: the largest
  chunk whose arena slab fits the one L2 budget
  (:data:`repro.core.arena.ARENA_BUDGET_BYTES`), while still producing
  enough chunks to keep every thread busy.

Determinism: threads only ever *compute* into private slabs and write
disjoint slices of the tape's shared scatter-values buffer; the single
``bincount`` reduction runs serially afterwards.  Thread scheduling can
therefore not change a single bit of the assembled RHS -- the property
the CI determinism check asserts.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.arena import aligned_empty, budget_chunk_groups
from ..obs.metrics import get_registry

__all__ = [
    "SlabPool",
    "default_chunk_groups",
    "get_thread_pool",
    "resolve_num_threads",
    "shutdown_thread_pools",
]

_pools: Dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def resolve_num_threads(num_threads: Optional[int] = None) -> int:
    """Thread count to run with: explicit > ``REPRO_NUM_THREADS`` > CPUs."""
    if num_threads is not None:
        return max(1, int(num_threads))
    env = os.environ.get("REPRO_NUM_THREADS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def get_thread_pool(num_threads: int) -> ThreadPoolExecutor:
    """The process-wide executor with ``num_threads`` workers (cached)."""
    num_threads = max(1, int(num_threads))
    with _pools_lock:
        pool = _pools.get(num_threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=num_threads,
                thread_name_prefix=f"repro-tape-{num_threads}",
            )
            _pools[num_threads] = pool
            get_registry().counter("locality.thread_pools").inc()
        return pool


def shutdown_thread_pools() -> None:
    """Shut down every cached pool (test isolation / interpreter exit)."""
    with _pools_lock:
        for pool in _pools.values():
            pool.shutdown(wait=True)
        _pools.clear()


def default_chunk_groups(
    nbufs: int,
    vector_dim: int,
    ngroups: int,
    num_threads: int,
) -> int:
    """Heuristic chunk size (in element groups) for the threaded executor.

    Two pressures pull in opposite directions: small chunks keep every
    thread's working set (the ``nbufs * chunk_lanes * 8``-byte arena
    slab) cache-resident and balance load, while large chunks amortize
    the per-op numpy dispatch overhead that grows linearly with the
    number of chunks.  The heuristic takes the largest chunk whose slab
    fits the arena budget (:func:`repro.core.arena.budget_chunk_groups`),
    then shrinks it if needed so the sweep yields at least
    ``2 * num_threads`` chunks (load balancing headroom), but never below
    one group.
    """
    ngroups = max(1, int(ngroups))
    by_cache = budget_chunk_groups(
        8 * max(1, int(nbufs)), max(1, int(vector_dim)), ngroups
    )
    by_balance = max(1, ngroups // (2 * max(1, int(num_threads))))
    return min(by_cache, by_balance)


class SlabPool:
    """Fixed pool of preallocated arena slabs for in-flight chunks.

    Each slab is a private ``(nbufs, lanes)`` float64 scratch arena plus
    a ``(lanes,)`` bool mask.  Workers :meth:`acquire` a slab before
    replaying a chunk and :meth:`release` it afterwards; the queue blocks
    when all slabs are busy, which caps concurrent scratch memory at
    ``count`` slabs no matter how many chunks are queued.
    """

    def __init__(self, nbufs: int, lanes: int, count: int) -> None:
        self.nbufs = int(nbufs)
        self.lanes = int(lanes)
        self.count = max(1, int(count))
        self._queue: "queue.SimpleQueue[Tuple[np.ndarray, np.ndarray]]" = (
            queue.SimpleQueue()
        )
        for _ in range(self.count):
            self._queue.put(
                (
                    aligned_empty((self.nbufs, self.lanes)),
                    aligned_empty(self.lanes, dtype=bool),
                )
            )
        get_registry().counter("locality.slab_bytes_allocated").inc(
            self.count * (self.nbufs * self.lanes * 8 + self.lanes)
        )

    def acquire(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._queue.get()

    def release(self, arena: np.ndarray, mask: np.ndarray) -> None:
        self._queue.put((arena, mask))
