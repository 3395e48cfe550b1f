"""Leak-free shared memory and graceful SIGTERM shutdown for the runner.

``multiprocessing.shared_memory`` segments live in ``/dev/shm`` under the
kernel, not the process: a runner killed mid-sweep leaks its coordinate
and velocity packs until reboot.  Three layers close that hole:

* every segment is created through :func:`create_shared_memory` with a
  recognizable ``repro_<pid>_<hex>`` name and tracked in a process-local
  registry, so a leak is *observable* (tests scan ``/dev/shm`` for the
  dead pid's prefix);
* the happy path releases segments through :func:`release_shared_memory`
  (close + unlink + deregister, idempotent);
* an ``atexit`` hook (:func:`purge_shared_memory`) unlinks anything still
  registered, and :func:`install_shutdown_handler` converts ``SIGTERM``
  into :class:`KeyboardInterrupt` so the runner's ``finally`` blocks --
  pool termination, segment release -- actually run instead of the
  process dying mid-`` bincount``.

The registry is per-process by construction: pool workers attach to the
parent's segments by name and never create their own, so the parent's
single unlink is always the right one.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import secrets
import signal
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence

__all__ = [
    "create_shared_memory",
    "release_shared_memory",
    "purge_shared_memory",
    "live_segment_names",
    "install_shutdown_handler",
    "SHM_PREFIX",
]

#: Name prefix of every runner-created segment (``repro_<pid>_<hex>``);
#: the pid component lets a post-mortem sweep attribute leaks to a run.
SHM_PREFIX = "repro"

_lock = threading.Lock()
_live: Dict[str, shared_memory.SharedMemory] = {}
_atexit_registered = False
#: main-thread sections that must not be cut in two, and the signals
#: :func:`install_shutdown_handler`'s handler held back while inside one
_held_depth = 0
_held_signals: List[int] = []


def _segment_name() -> str:
    return f"{SHM_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"


@contextlib.contextmanager
def _interrupts_held():
    """Hold the shutdown signal back across a section that must not be cut
    in two; its ``KeyboardInterrupt`` is raised when the section ends.

    An interrupt between ``SharedMemory(create=True)`` and the registration
    (or between the deregistration and the ``unlink``) leaves a segment that
    outlives the process, and no ``try`` closes a window an asynchronous
    exception can open between any two bytecodes.  The handler itself defers
    (it runs on the main thread, between bytecodes: the counter needs no
    lock).  ``pthread_sigmask`` on the main thread does not hold: the kernel
    hands the signal to any thread that leaves it unblocked -- numpy's BLAS
    workers -- and CPython runs the handler on the main thread all the same.
    """
    global _held_depth
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    _held_depth += 1
    try:
        yield
    finally:
        _held_depth -= 1
        if not _held_depth and _held_signals:
            signum = _held_signals.pop()
            _held_signals.clear()
            raise KeyboardInterrupt(f"signal {signum}")


def create_shared_memory(size: int) -> shared_memory.SharedMemory:
    """Create a tracked ``repro_<pid>_<hex>`` shared-memory segment.

    The segment is registered for the ``atexit`` purge until
    :func:`release_shared_memory` deregisters it.
    """
    global _atexit_registered
    with _interrupts_held():
        shm = shared_memory.SharedMemory(create=True, name=_segment_name(), size=size)
        with _lock:
            _live[shm.name] = shm
            if not _atexit_registered:
                atexit.register(purge_shared_memory)
                _atexit_registered = True
    return shm


def release_shared_memory(shm: shared_memory.SharedMemory) -> None:
    """Close, unlink and deregister one segment (idempotent).

    ``FileNotFoundError`` is tolerated: a crashed prior run or the
    resource tracker may have unlinked the segment already, and a cleanup
    path must never raise over already-clean state.
    """
    with _interrupts_held():
        with _lock:
            _live.pop(shm.name, None)
        try:
            shm.close()
        except BufferError:
            # an exported ndarray view still holds the buffer; unlink below
            # still removes the name so nothing leaks past process exit.
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def purge_shared_memory() -> List[str]:
    """Unlink every still-registered segment; returns the purged names.

    Runs at interpreter exit (and is safe to call any time): segments the
    happy path already released are no longer registered, so this only
    fires for abnormal exits -- an unhandled exception between creation
    and the ``finally``, or a ``SIGTERM`` delivered outside
    :func:`install_shutdown_handler`'s protection.
    """
    with _lock:
        doomed = list(_live.values())
        _live.clear()
    purged = []
    for shm in doomed:
        try:
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            continue
        purged.append(shm.name)
    return purged


def live_segment_names() -> List[str]:
    """Names of segments created but not yet released (leak probe)."""
    with _lock:
        return sorted(_live)


def install_shutdown_handler(
    signums: Sequence[int] = (signal.SIGTERM, signal.SIGINT),
) -> Optional[Dict[int, object]]:
    """Convert ``signums`` into a section-respecting ``KeyboardInterrupt``.

    ``SIGTERM``'s default disposition kills the process between any two
    bytecodes, skipping every ``finally`` -- leaked pools, leaked
    ``/dev/shm`` segments, truncated telemetry.  Raising
    :class:`KeyboardInterrupt` instead reuses the exact unwinding path
    Ctrl-C already exercises: ``measure`` terminates its pool and
    releases shared memory in ``finally``, and the campaign
    server drains.  Inside :func:`create_shared_memory` and
    :func:`release_shared_memory` the exception waits for the section to
    end, so a segment is never left between existing and being registered
    -- Python's own ``SIGINT`` handler does not wait, so Ctrl-C gets this one.

    Only effective from the main thread (signal handlers are a
    main-thread affair); returns the previous handler of each signal so
    callers can restore them, or ``None`` when not in the main thread.
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def _raise_interrupt(_signum, _frame):
        if _held_depth:
            _held_signals.append(_signum)
        else:
            raise KeyboardInterrupt(f"signal {_signum}")

    return {signum: signal.signal(signum, _raise_interrupt) for signum in signums}
