"""Parallel execution: the fork-join that runs a sweep's ranges or slabs on
persistent worker threads and the RCB element partition the pressure
solver's deflation rung uses.  The paper's pure-MPI scaling itself is
modelled by :meth:`repro.machine.cpu.CpuModel.scaling_curve`."""

from .partition import rcb_partition
from .threads import resolve_num_threads

__all__ = ["rcb_partition", "resolve_num_threads"]
