"""Resilience subsystem: fault injection, recovery, and degradation.

The production context of the paper -- Alya LES campaigns across thousands
of MPI ranks -- demands that a lost rank, a NaN sweep or a diverging
pressure solve degrade a run, not kill it.  This package provides

* :mod:`~repro.resilience.faults` -- deterministic, seedable fault
  injection (:class:`FaultPlan`), the driver of every chaos test;
* :mod:`~repro.resilience.checkpoint` -- atomic ``.npz`` checkpoints for
  bitwise-stable integrator restarts;
* :mod:`~repro.resilience.ladders` -- degradation ladders: the
  ``codegen -> compiled -> interpreted -> reference`` assembler chain
  (:class:`ResilientAssembler`) and the shared escalation bookkeeping the
  pressure-solver ladder uses.

Recovery machinery itself lives where the failures happen: checkpoint and
rollback in :class:`repro.physics.fractional_step.FractionalStepSolver`,
and the CG escalation ladder in :class:`repro.physics.pressure.PressureSolver`.
Every recovery action is observable through the ``resilience.*`` counters
(:data:`RESILIENCE_COUNTERS`) and marker spans.
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
from .faults import (
    RECOVERY_COUNTERS,
    RESILIENCE_COUNTERS,
    FaultPlan,
    FaultSpec,
    fault_seed_from_env,
)
from .ladders import AssemblyDegraded, ResilientAssembler, record_escalation

__all__ = [
    "AssemblyDegraded",
    "CancelToken",
    "CheckpointError",
    "CheckpointState",
    "CooperativeCancel",
    "FaultPlan",
    "FaultSpec",
    "RECOVERY_COUNTERS",
    "RESILIENCE_COUNTERS",
    "ResilientAssembler",
    "checkpoint_name",
    "fault_seed_from_env",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "record_escalation",
    "save_checkpoint",
]
