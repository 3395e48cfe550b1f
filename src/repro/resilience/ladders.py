"""The mode ladder and the one escalation event every recovery site emits.

A failed assembly is recovered once, by the layer that owns the job: the
campaign server walks :data:`MODE_LADDER` behind its circuit breaker
(:mod:`repro.server.service`), a time step's stage guards roll the step
back (:mod:`repro.physics.fractional_step`), and the pressure solver climbs
its own rungs (:class:`repro.physics.pressure.PressureSolver`).  Each climb
goes through :func:`record_escalation`, so a run that lost its fast path is
visible in its trace and metrics snapshot.
"""

from __future__ import annotations

from ..obs.metrics import get_registry
from ..obs.spans import get_tracer

__all__ = ["MODE_LADDER", "record_escalation"]

#: The assembler degradation ladder, fastest first: a server request
#: enters at its own mode and degrades rightward.
MODE_LADDER = ("codegen", "compiled", "interpreted", "reference")


def record_escalation(event: str, counter: str, **attributes) -> None:
    """Count one ladder climb and emit a zero-length marker span."""
    get_registry().counter(counter).inc()
    with get_tracer().span(event, **attributes):
        pass
