"""Resilience subsystem: fault injection, recovery, and degradation.

The production context of the paper -- Alya LES campaigns across thousands
of MPI ranks -- demands that a lost rank, a NaN sweep or a diverging
pressure solve degrade a run, not kill it.  This package provides

* :mod:`~repro.resilience.faults` -- deterministic, seedable fault
  injection (:class:`FaultPlan`), the driver of every chaos test;
* :mod:`~repro.resilience.checkpoint` -- atomic ``.npz`` checkpoints for
  bitwise-stable integrator restarts;
* :mod:`~repro.resilience.ladders` -- the ``codegen -> compiled ->
  interpreted -> reference`` mode ladder the server's breaker walks and
  :func:`record_escalation`, the one event every recovery site emits.

Recovery itself lives with whoever owns the job, once: checkpoint and
rollback in :class:`repro.physics.fractional_step.FractionalStepSolver`
(a campaign's detached row included), the CG escalation ladder in
:class:`repro.physics.pressure.PressureSolver`, and the mode ladder in
:mod:`repro.server.service`.  Every recovery action is observable through
a ``resilience.*`` counter and a marker span.
"""

from .cancel import CancelToken, CooperativeCancel
from .checkpoint import (
    CheckpointError,
    CheckpointState,
    checkpoint_name,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from .faults import FaultPlan, FaultSpec, fault_seed_from_env
from .ladders import record_escalation

__all__ = [
    "CancelToken",
    "CheckpointError",
    "CheckpointState",
    "CooperativeCancel",
    "FaultPlan",
    "FaultSpec",
    "checkpoint_name",
    "fault_seed_from_env",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "record_escalation",
    "save_checkpoint",
]
