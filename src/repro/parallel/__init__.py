"""Parallel execution: the supervised multiprocessing scaling runner, its
shared-memory lifecycle, the fork-join that runs a sweep's ranges or slabs
on persistent worker threads and the RCB element partition the pressure
solver's deflation rung uses.  The paper's pure-MPI scaling itself is
modelled by :meth:`repro.machine.cpu.CpuModel.scaling_curve`."""

from .partition import rcb_partition
from .runner import MultiprocessRunner, ScalingPoint, WorkerPolicy
from .shutdown import (
    SHM_PREFIX,
    create_shared_memory,
    install_shutdown_handler,
    live_segment_names,
    purge_shared_memory,
    release_shared_memory,
)
from .threads import resolve_num_threads

__all__ = [
    "rcb_partition",
    "MultiprocessRunner", "ScalingPoint", "WorkerPolicy",
    "SHM_PREFIX", "create_shared_memory", "install_shutdown_handler",
    "live_segment_names", "purge_shared_memory", "release_shared_memory",
    "resolve_num_threads",
]
