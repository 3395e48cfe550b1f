"""GIL-free threaded execution substrate for the bound kernels.

The multiprocess runner (:mod:`repro.parallel.runner`) pays spawn, pickle
and shared-memory costs that only amortize on large meshes.  For the
compiled and generated kernels there is a zero-pickle alternative: numpy
ufuncs (and the C form) release the GIL while they crunch, so slabs of
element-group chunks run on a plain
:class:`~concurrent.futures.ThreadPoolExecutor` genuinely overlap -- no
processes, no serialization, shared read-only mesh arrays.

This module owns the thread-level plumbing of
:meth:`repro.core.arena.MeshBound.execute_chunked`:

* :func:`resolve_num_threads` -- explicit, else the CPU count.
* :func:`get_thread_pool` -- one process-wide pool per thread count,
  reused across assemblies (thread spawn is ~100us; a steady-state
  time-stepper must not pay it per step).

The slabs themselves -- each thread's private rows, sized by the one
arena budget (:data:`repro.core.arena.ARENA_BUDGET_BYTES`) -- belong to
the kernel that prebinds its chunks to them (chunk ``i`` on slab ``i %
nslabs``, a slab's chunks sequential).

Determinism: threads only ever *compute* into private slabs and write
disjoint slices of the kernel's shared scatter-values buffer; the single
``bincount`` reduction runs serially afterwards.  Thread scheduling can
therefore not change a single bit of the assembled RHS -- the property
the CI determinism check asserts.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from ..obs.metrics import get_registry

__all__ = [
    "get_thread_pool",
    "resolve_num_threads",
    "shutdown_thread_pools",
]

_pools: Dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def resolve_num_threads(num_threads: Optional[int] = None) -> int:
    """Thread count to run with: explicit, else the CPU count."""
    if num_threads is not None:
        return max(1, int(num_threads))
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
