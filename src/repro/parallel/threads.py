"""Two cores per sweep: the CPU count, persistent workers and one fork-join.

numpy ufuncs and the C form (``ctypes``) drop the GIL, so a sweep's
independent tasks -- the adopted C form's group ranges, the threaded
executor's slabs -- run on two cores.  :func:`fork_join` runs the first task
on the calling thread and hands each other one to a persistent daemon
worker, started by the first split sweep; a task whose worker another caller
holds (*busy*), or every task under a one-CPU affinity, runs on the caller
after its own.  The tasks write disjoint memory, so no schedule changes a
byte; :func:`interface_spill` makes a generated kernel's ranges disjoint.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Optional, Sequence

import numpy as np

__all__ = ["cpu_count", "fork_join", "interface_spill", "replay_spill", "resolve_num_threads"]


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def resolve_num_threads(num_threads: Optional[int] = None) -> int:
    """Thread count to run with: explicit, else the CPU count."""
    return cpu_count() if num_threads is None else max(1, int(num_threads))


def _serve(inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    while True:
        task = inbox.get()
        try:
            task()
            outbox.put(None)
        except BaseException as exc:  # re-raised on the caller
            outbox.put(exc)


#: ``(held, inbox, outbox)`` per worker; ``held`` while a caller's task is on it
_workers: list = []
_workers_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child inherits no thread
    os.register_at_fork(after_in_child=_workers.clear)


def fork_join(tasks: Sequence) -> str:
    """Run ``tasks`` (zero-argument callables writing disjoint memory) to
    completion: the first here, each other one on an idle worker, else here
    after it.  Returns why tasks ran in sequence: ``"busy"``, ``"one_cpu"``,
    or ``""`` (they did not, or there were more tasks than CPUs)."""
    cpus = cpu_count()
    spare = min(cpus, len(tasks)) - 1
    with _workers_lock:
        while len(_workers) < spare:
            _workers.append((threading.Lock(), queue.SimpleQueue(), queue.SimpleQueue()))
            threading.Thread(target=_serve, args=_workers[-1][1:], daemon=True,
                             name=f"repro-range-{len(_workers)}").start()
    started, here, free = [], list(tasks[:1]), iter(_workers[:spare])
    for task in tasks[1:]:
        worker = next((w for w in free if w[0].acquire(blocking=False)), None)
        if worker is None:
            here.append(task)
        else:
            worker[1].put(task)
            started.append(worker)
    try:
        for task in here:
            task()
    finally:
        errors = [outbox.get() for _, _, outbox in started]
        for held, _, _ in started:
            held.release()
    for error in filter(None, errors):
        raise error
    if len(here) < 2:
        return ""
    return "one_cpu" if cpus == 1 else "busy" if len(started) < spare else ""


def interface_spill(idx: np.ndarray, cuts: Sequence[int], vector_dim: int,
                    nelem: int, nnode: int) -> np.ndarray:
    """Redirect, in place, each live entry of ``idx`` (``(slots, lanes)``,
    lanes group-major, the first ``nelem`` live) in group range ``r > 0`` of
    ``cuts`` whose node an earlier range also touches to spill row ``nnode +
    j``, ``j`` in (range, group, slot, lane) order; returns each spill row's
    node.  A node's row then has one writer, the first range touching it."""
    nslot, nlane = idx.shape
    rng = np.searchsorted(cuts, np.arange(nelem) // vector_dim, side="right") - 1
    first = np.full(nnode, len(cuts))
    for row in idx[:, :nelem]:  # 1-D each: ufunc.at mis-broadcasts ``rng`` over 2-D
        np.minimum.at(first, row, rng)
    hit = np.zeros((nslot, nlane), dtype=bool)
    hit[:, :nelem] = rng > first[idx[:, :nelem]]
    g, slot, lane = np.unravel_index(
        np.flatnonzero(hit.reshape(nslot, -1, vector_dim).transpose(1, 0, 2)),
        (nlane // vector_dim, nslot, vector_dim))
    lane += g * vector_dim
    nodes = idx[slot, lane]
    idx[slot, lane] = nnode + np.arange(len(nodes))
    return nodes


def replay_spill(acc: np.ndarray, at: np.ndarray, n: int) -> None:
    """Add each leading index's spill values (``acc``'s flat entries from ``n``
    on) into its flat entries ``at``, in spill order (``np.add.at`` is
    unbuffered): each node receives its entries in the serial sweep's order."""
    for a in acc.reshape(-1, acc.shape[-2] * 3) if len(at) else ():
        np.add.at(a[:n], at, a[n:])
