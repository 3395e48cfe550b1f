"""Degradation ladders: keep producing correct answers on worse rungs.

Two ladders cover the two failure-prone fast paths the reproduction has
grown:

* **Assembler ladder** (:class:`ResilientAssembler`): the RHS assembly
  chain degrades along :data:`MODE_LADDER`, ``codegen -> compiled ->
  interpreted -> reference``.  Each rung is
  validated against the vectorized reference assembly on its *first*
  sweep (and never again -- validation costs one extra reference
  assembly); a rung whose output is non-finite or drifts from the
  reference is abandoned permanently for the run.  A corrupted kernel
  tape therefore costs one wasted sweep, not a wrong simulation.
* **Pressure ladder** (in :class:`repro.physics.pressure.PressureSolver`):
  CG escalates CG(AMG) -> CG+deflation -> CG(stronger AMG) before
  surfacing a structured :class:`~repro.solvers.cg.SolverError`; the
  shared :func:`record_escalation` helper makes every climb observable.

Every degradation increments ``resilience.assembler_degradations`` /
``resilience.solver_escalations`` and emits an ``AssemblerDegradation`` /
``SolverEscalation`` span, so a run that silently lost its fast path is
visible in its trace and metrics snapshot.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..fem.mesh import TetMesh
from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from ..physics.momentum import AssemblyParams, assemble_momentum_rhs

__all__ = ["AssemblyDegraded", "MODE_LADDER", "ResilientAssembler", "record_escalation"]

#: The assembler degradation ladder, fastest first: a run (or a server
#: request) enters at its own mode and degrades rightward.
MODE_LADDER = ("codegen", "compiled", "interpreted", "reference")


def record_escalation(event: str, counter: str, **attributes) -> None:
    """Count one ladder climb and emit a zero-length marker span."""
    get_registry().counter(counter).inc()
    with get_tracer().span(event, **attributes):
        pass


class AssemblyDegraded(RuntimeError):
    """Every rung of the assembler ladder failed validation."""


class ResilientAssembler:
    """Self-validating RHS assembler with a ``codegen -> compiled ->
    interpreted -> reference`` degradation ladder.

    Drop-in for the ``assemble(mesh, velocity, params)`` callable the
    :class:`~repro.physics.fractional_step.FractionalStepSolver` expects
    (also reachable as the ``"resilient[:VARIANT]"`` assembler spec).

    Parameters
    ----------
    mesh, params:
        Bound at construction, like
        :func:`~repro.physics.momentum.kernel_rhs_assembler`.
    variant:
        DSL variant for the codegen/compiled/interpreted rungs.
    modes:
        Ladder rungs, fastest first.  The terminal ``"reference"`` rung is
        its own oracle and can never fail validation.
    rtol, atol:
        Validation tolerances against the reference assembly (the DSL
        paths reassociate floating-point ops, so exact equality is not
        expected between rungs -- only between runs of the same rung).
    vector_dim:
        Optional element-group size forwarded to every DSL rung's
        :class:`~repro.core.unified.UnifiedAssembler`; ``None`` resolves
        per variant as usual.  Batched scenario isolation passes the
        batch's group size so an isolated scenario that survives on the
        fast rung stays bit-identical to a serial solve of the same
        configuration.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; its
        ``"assembler"`` site corrupts the DSL-rung output so chaos tests
        can force a degradation.
    """

    def __init__(
        self,
        mesh: TetMesh,
        params: AssemblyParams,
        variant: str = "RSP",
        modes: Sequence[str] = MODE_LADDER,
        rtol: float = 1e-8,
        atol: float = 1e-12,
        fault_plan=None,
        vector_dim: Optional[int] = None,
    ) -> None:
        for mode in modes:
            if mode not in MODE_LADDER:
                raise ValueError(
                    f"unknown assembler rung {mode!r}; expected a subset "
                    f"of {MODE_LADDER}"
                )
        if not modes or modes[-1] != "reference":
            raise ValueError("the assembler ladder must end on 'reference'")
        self.mesh = mesh
        self.params = params
        self.variant = variant.upper()
        self.modes = tuple(modes)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.fault_plan = fault_plan
        self.vector_dim = vector_dim
        self.rung = 0
        self._validated = set()
        self._assemblers: dict = {}

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The rung currently serving assemblies."""
        return self.modes[self.rung]

    def _assembler(self, mode: str):
        """Lazy :class:`~repro.core.unified.UnifiedAssembler` per DSL rung."""
        asm = self._assemblers.get(mode)
        if asm is None:
            from ..core.unified import UnifiedAssembler

            asm = UnifiedAssembler(
                self.mesh,
                self.params,
                mode=mode,
                vector_dim=self.vector_dim,
                fault_plan=self.fault_plan,
            )
            self._assemblers[mode] = asm
        return asm

    def _assemble(self, mode: str, velocity: np.ndarray) -> np.ndarray:
        if mode == "reference":
            return assemble_momentum_rhs(self.mesh, velocity, self.params)
        return self._assembler(mode).assemble(self.variant, velocity)

    def _valid(self, rhs: np.ndarray, ref: np.ndarray) -> bool:
        if not np.isfinite(rhs).all():
            return False
        return bool(np.allclose(rhs, ref, rtol=self.rtol, atol=self.atol))

    # ------------------------------------------------------------------
    def __call__(
        self, mesh: TetMesh, velocity: np.ndarray, params: AssemblyParams
    ) -> np.ndarray:
        if mesh is not self.mesh:
            raise ValueError(
                "ResilientAssembler is bound to the mesh it was built for; "
                "rebuild it for a different mesh"
            )
        if params != self.params:
            raise ValueError(
                "ResilientAssembler is bound to its construction params "
                f"(got {params!r}, expected {self.params!r}); rebuild it"
            )
        while True:
            mode = self.modes[self.rung]
            rhs = self._assemble(mode, velocity)
            if mode == "reference" or mode in self._validated:
                return rhs
            # first sweep of a fast rung: validate against the oracle
            get_registry().counter("resilience.validations").inc()
            ref = assemble_momentum_rhs(self.mesh, velocity, self.params)
            if self._valid(rhs, ref):
                self._validated.add(mode)
                return rhs
            if self.rung + 1 >= len(self.modes):  # pragma: no cover - guarded
                raise AssemblyDegraded(
                    f"assembler rung {mode!r} failed validation and no "
                    "rung remains"
                )
            record_escalation(
                "AssemblerDegradation",
                "resilience.assembler_degradations",
                variant=self.variant,
                from_mode=mode,
                to_mode=self.modes[self.rung + 1],
            )
            self.rung += 1
