"""Explicit fractional-step time integrator.

The paper's context: "incompressible Large Eddy Simulations using a
fractional step scheme with explicit time discretization for momentum",
where "the main computational kernels are the assembly of the RHS
(up to 80% of the total time) and the solution of a linear system of
equations for the pressure".  This integrator reproduces that loop:

1. explicit momentum predictor -- ``sweeps_per_step`` RHS assemblies per
   step (a low-storage Runge-Kutta), each one call into a selected kernel
   variant or the vectorized reference assembly;
2. pressure-Poisson solve (AMG-CG);
3. velocity projection (divergence correction);
4. Dirichlet boundary re-application.

It also keeps the timing breakdown so the examples can show the paper's
"assembly dominates" claim on real runs.  One step driver serves a solo
:class:`FractionalStepSolver` and a lockstep :class:`BatchCampaign`: a
solo solver is the campaign of one trajectory (:func:`_attempt`).

Robustness (the production reality of week-long LES campaigns): each stage
is guarded against NaN/Inf and velocity blow-up; a tripped guard rolls the
step back to the last good state and retries with a halved ``dt`` (bounded
by ``max_dt_halvings``, then a structured :class:`IntegrationError`);
periodic ``.npz`` checkpoints plus :meth:`FractionalStepSolver.restart`
give bitwise-stable restarts.  Every rollback is counted in
``resilience.rollbacks`` and visible as a ``Rollback`` span.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fem.boundary import DirichletBC
from ..fem.mesh import TetMesh
from ..fem.plan import get_plan
from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from ..resilience.cancel import CancelToken
from ..resilience.checkpoint import (
    CheckpointError,
    CheckpointState,
    checkpoint_name,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from ..resilience.ladders import record_escalation
from ..solvers.cg import scenario_rows
from .momentum import AssemblyParams, assemble_momentum_rhs, kernel_rhs_assembler
from .pressure import PressureSolver, ProjectionBasis, stacked_divergence

__all__ = [
    "StepReport",
    "FractionalStepSolver",
    "BatchCampaign",
    "IntegrationError",
    "cfl_time_step",
    "resolve_assembler",
]


class IntegrationError(RuntimeError):
    """A time step could not be completed even after dt-halving retries.

    Carries the failing ``step``, the last attempted ``dt``, the guard
    ``stage`` (``"momentum"`` / ``"pressure"`` / ``"projection"``) and the
    guard ``reason`` so campaign drivers can log and decide (restart from
    checkpoint, change the CFL, give up) without string-parsing.
    """

    def __init__(self, message: str, step: int, dt: float, stage: str, reason: str) -> None:
        super().__init__(message)
        self.step = step
        self.dt = dt
        self.stage = stage
        self.reason = reason

    def context(self) -> dict:
        return {
            "step": self.step,
            "dt": self.dt,
            "stage": self.stage,
            "reason": self.reason,
        }


class _StageFailure(Exception):
    """Internal: a stage guard tripped (caught by the rollback loop)."""

    def __init__(self, stage: str, reason: str) -> None:
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason


def resolve_assembler(
    spec: str,
    mesh: TetMesh,
    params: AssemblyParams,
) -> Callable:
    """Resolve an assembler spec string to an RHS assembly callable.

    ``"reference"`` is the vectorized numpy reference; ``"compiled"``,
    ``"codegen"`` and ``"interpreted"`` run the DSL kernel path (default
    variant RSP) in the corresponding
    :class:`~repro.core.unified.UnifiedAssembler` mode; a
    ``":<VARIANT>"`` suffix (e.g. ``"codegen:RS"``) picks the variant.
    A non-finite sweep is not repaired here: the step's guards roll it back.
    """
    text = spec.strip().lower()
    if text == "reference":
        return assemble_momentum_rhs
    mode, _, variant = text.partition(":")
    if mode not in ("compiled", "codegen", "interpreted"):
        raise ValueError(
            f"unknown assembler spec {spec!r}; expected 'reference', "
            "'compiled[:VARIANT]', 'codegen[:VARIANT]' or "
            "'interpreted[:VARIANT]'"
        )
    return kernel_rhs_assembler(mesh, params, variant=(variant or "RSP"), mode=mode)

#: classical low-storage 3-stage Runge-Kutta coefficients
_RK3_COEFFS = (1.0 / 3.0, 0.5, 1.0)


def cfl_time_step(
    mesh: TetMesh, velocity: np.ndarray, cfl: float = 0.5, floor: float = 1e-12
) -> float:
    """CFL-limited time step ``dt = cfl * min(h / |u|)`` with ``h = V^(1/3)``.

    Raises a descriptive :class:`ValueError` for meshes the formula is
    meaningless on -- no elements at all, or a zero-volume element (which
    would drive ``dt`` to zero and stall the campaign silently).
    """
    vols = get_plan(mesh).element_volumes()
    if vols.size == 0:
        raise ValueError("cfl_time_step: mesh has no elements")
    h = np.cbrt(np.abs(vols))
    hmin = float(h.min())
    if hmin <= 0.0:
        raise ValueError(
            "cfl_time_step: mesh contains a zero-volume element "
            "(min |V| = 0); repair the mesh before time stepping"
        )
    umag = np.linalg.norm(velocity, axis=1)
    umax = float(umag.max()) if umag.size else 0.0
    if umax <= floor:
        return cfl * hmin
    return cfl * hmin / umax


def _positive_dt(dt: float) -> float:
    """``dt`` as a float, or :class:`ValueError` before anything is counted
    when it is not a positive finite number (``nan <= 0`` is False)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a positive finite number, got {dt!r}")
    return float(dt)


def _max_divergence(plan, u: np.ndarray) -> np.ndarray:
    """Max |div u| over elements of each field of a stack ``(S, nnode, 3)``."""
    div = stacked_divergence(plan, "elemental", u)
    return np.abs(div).max(axis=0, initial=0.0)


def _kinetic_energy(mass: np.ndarray, speed2: np.ndarray) -> np.ndarray:
    """Mass-weighted ``0.5 sum_m m |u|^2`` of each field of a stack, from
    its ``|u|^2`` ``(S, nnode)``."""
    return 0.5 * (mass * speed2).sum(axis=1)


def _finish_steps(solvers, u: np.ndarray, dt: float, umax_before):
    """Pressure solve, projection, guards and step diagnostics of the stacked
    predictors ``u`` ``(S, nnode, 3)`` of ``solvers`` (one mesh, one
    :class:`PressureSolver`, one :class:`ProjectionBasis` each): one block
    solve, one product for the bases and one pass per derivative stage
    instead of ``S``, every scenario byte-equal to its own one-scenario call.
    Corrects ``u`` in place; mutates no solver.  Returns ``(outcomes, t_pressure)``: per scenario
    ``(u, result, A result.x, (max_velocity, max_divergence,
    kinetic_energy))`` or the :class:`_StageFailure` of its tripped guard,
    and the solve's wall time per scenario.
    """
    lead = solvers[0]
    density = np.array([sv.params.density for sv in solvers])
    with get_tracer().span("pressure", columns=len(solvers)) as span:
        t0 = time.perf_counter()
        results = lead.pressure.solve(
            u, density, dt, bases=[sv.pressure_basis for sv in solvers]
        )
        p = np.stack([r.x for r in results], axis=1)
        images = scenario_rows(lead.pressure.image(p))  # what extends each basis
        t_pressure = (time.perf_counter() - t0) / len(solvers)
        if span is not None:
            span.attributes["iterations"] = [r.iterations for r in results]
    with get_tracer().span("projection"):
        gradp = lead.pressure.pressure_gradient(p).transpose(2, 0, 1)
        gradp *= (dt / density)[:, None, None]
        u -= gradp  # the predictors are this call's: corrected in place
        for sv, field in zip(solvers, u):
            sv._apply_bcs(field)
    speed2 = (u * u).sum(axis=2)  # the one add.reduce norm(axis=2) and |u|^2 both run
    speed = np.sqrt(speed2).max(axis=1, initial=0.0)
    divergence = _max_divergence(lead._plan, u)
    energy = _kinetic_energy(lead.mass, speed2)
    outcomes = []
    for j, sv in enumerate(solvers):
        if not np.isfinite(p[:, j]).all():
            outcomes.append(_StageFailure("pressure", "non-finite pressure field"))
        elif not np.isfinite(u[j]).all():
            outcomes.append(_StageFailure("projection", "non-finite corrected velocity"))
        elif speed[j] > sv.blowup_factor * max(1.0, umax_before[j]):
            outcomes.append(_StageFailure(
                "projection",
                f"velocity blow-up: max|u| {umax_before[j]:.3e} -> "
                f"{speed[j]:.3e} (> {sv.blowup_factor:g}x)",
            ))
        else:
            diagnostics = (float(speed[j]), float(divergence[j]), float(energy[j]))
            outcomes.append((u[j], results[j], images[j], diagnostics))
    return outcomes, t_pressure


def _attempt(solvers, rhs_of: Callable, dt: float) -> list:
    """One candidate step of the trajectories ``solvers`` (one mesh), mutating
    none of them: the RK momentum predictors as one ``(k, nnode, 3)`` stack,
    ``rhs_of(u)`` assembling every row of a sweep, then :func:`_finish_steps`.

    Each row is updated in place as ``u0 + (c dt)(rhs minv)``.  A row that
    goes non-finite is frozen at its (finite) ``u0``, so the remaining sweeps
    stay NaN-free for the others (rows are independent).  Every row's fault
    plan sees every sweep: occurrence ``k`` of ``"momentum_rhs"`` is the
    ``k``-th sweep of that trajectory, counting every attempt.  Returns per
    trajectory the commit tuple ``(u, result, image, diagnostics, t_assembly,
    t_pressure)`` or the :class:`_StageFailure` of its tripped guard.
    """
    lead = solvers[0]
    umax_before = [sv._umax() for sv in solvers]
    minv = 1.0 / lead.mass[:, None]
    u0 = np.stack([sv.velocity for sv in solvers])
    u = u0.copy()
    failed = np.zeros(len(solvers), dtype=bool)
    with get_tracer().span("momentum", sweeps=lead.sweeps, scenarios=len(solvers)):
        t0 = time.perf_counter()
        for c in lead._rk_coeffs():
            rhs = rhs_of(u)
            for j, sv in enumerate(solvers):
                if sv.fault_plan is not None:
                    sv.fault_plan.corrupt("momentum_rhs", rhs[j])
                if failed[j]:
                    continue
                np.multiply(rhs[j], minv, out=u[j])
                u[j] *= c * dt
                u[j] += u0[j]
                sv._apply_bcs(u[j])
                if not np.isfinite(u[j]).all():
                    failed[j] = True
                    u[j] = u0[j]
        t_assembly = (time.perf_counter() - t0) / len(solvers)
    outcomes = [_StageFailure("momentum", "non-finite predictor velocity")] * len(solvers)
    live = np.flatnonzero(~failed)
    if live.size:
        finished, t_pressure = _finish_steps(
            [solvers[j] for j in live], u[live], dt, [umax_before[j] for j in live]
        )
        for j, outcome in zip(live, finished):
            if not isinstance(outcome, _StageFailure):
                outcome += (t_assembly, t_pressure)
            outcomes[j] = outcome
    return outcomes


class _Driver:
    """What a solo solver and a campaign share: ``run`` and
    ``timing_breakdown`` over the trajectories ``_trajectories`` (a solo
    solver's are ``(self,)``) and the driver's own ``advance``."""

    def run(
        self,
        steps: int,
        cfl: float = 0.5,
        dt: Optional[float] = None,
        callback: Optional[Callable] = None,
        cancel: Optional[CancelToken] = None,
    ) -> list:
        """Advance ``steps`` steps with a fixed ``dt`` or the CFL minimum over
        the trajectories; returns what each :meth:`advance` returned.

        ``cancel`` is checked *between* steps -- a tripped token raises
        :class:`~repro.resilience.cancel.CooperativeCancel` with every
        trajectory at its last committed step, so the caller can checkpoint
        or report partial results safely.
        """
        out = []
        for _ in range(steps):
            if cancel is not None:
                cancel.check()
            step_dt = dt if dt is not None else min(
                cfl_time_step(self.mesh, sv.velocity, cfl) for sv in self._trajectories
            )
            rep = self.advance(step_dt)
            if callback is not None:
                callback(rep)
            out.append(rep)
        return out

    def timing_breakdown(self) -> Dict[str, float]:
        """Cumulative assembly vs pressure seconds (the paper's 80% claim); a
        lockstep step's batched sweeps and block solve are shared out evenly."""
        reports = [r for sv in self._trajectories for r in sv.history]
        ta = sum(r.assembly_seconds for r in reports)
        tp = sum(r.pressure_seconds for r in reports)
        return {
            "assembly_seconds": ta,
            "pressure_seconds": tp,
            "assembly_fraction": ta / (ta + tp) if ta + tp else 0.0,
        }


@dataclasses.dataclass
class StepReport:
    """Diagnostics of one time step."""

    step: int
    time: float
    dt: float
    assembly_seconds: float
    pressure_seconds: float
    pressure_iterations: int
    max_velocity: float
    max_divergence: float
    kinetic_energy: float


class FractionalStepSolver(_Driver):
    """Explicit fractional-step incompressible LES driver (the lockstep
    campaign of one trajectory).

    Each :meth:`advance` is one ``step`` span of the installed tracer, with
    nested ``momentum`` / ``pressure`` / ``projection`` stage spans; the
    ``fstep.*`` counters go to the process-wide registry.

    Parameters
    ----------
    mesh:
        Tetrahedral mesh.
    params:
        Physical/model parameters shared with the assembly kernels.
    dirichlet:
        Velocity Dirichlet conditions, re-applied after each projection.
    assemble:
        RHS assembly callable ``(mesh, velocity, params) -> (nnode, 3)``;
        defaults to the vectorized reference.  Pass a closure around
        :meth:`repro.core.unified.UnifiedAssembler.assemble` to drive the
        DSL kernel variants end-to-end -- or a string spec:
        ``"reference"`` (the default path), ``"codegen"`` / ``"compiled"``
        / ``"interpreted"`` (DSL assembly of the default RSP variant),
        or ``"codegen:RSP"`` / ``"interpreted:B"`` etc. to pick the
        variant -- resolved through :func:`resolve_assembler`.
    sweeps_per_step:
        Runge-Kutta stages (3, matching the paper's runtime convention).
    max_dt_halvings:
        Rollback budget per step: a stage guard trip (NaN/Inf, blow-up)
        restores the pre-step state and retries with ``dt/2``, at most
        this many times, then raises :class:`IntegrationError`.
    blowup_factor:
        Guard threshold: a step whose max velocity magnitude exceeds
        ``blowup_factor * max(1, previous max)`` is rejected as a CFL
        blow-up even when still finite.
    checkpoint_every, checkpoint_dir:
        When both set, a restartable ``.npz`` checkpoint is written to
        ``checkpoint_dir`` every ``checkpoint_every`` completed steps
        (see :meth:`checkpoint` / :meth:`restart`).
    keep_checkpoints:
        Checkpoint generations retained in ``checkpoint_dir`` (default 2):
        after each periodic checkpoint, older generations are pruned, so
        a corrupted latest checkpoint always leaves a previous one for
        :meth:`restart_latest` to fall back to.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; its
        ``"momentum_rhs"`` site corrupts one RHS sweep so chaos tests can
        force the rollback path.
    """

    def __init__(
        self,
        mesh: TetMesh,
        params: AssemblyParams,
        dirichlet: Sequence[DirichletBC] = (),
        assemble: Optional[Callable] = None,
        pressure_solver: Optional[PressureSolver] = None,
        sweeps_per_step: int = 3,
        max_dt_halvings: int = 4,
        blowup_factor: float = 100.0,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[str] = None,
        keep_checkpoints: int = 2,
        fault_plan=None,
    ) -> None:
        self.mesh = mesh
        self.params = params
        self.dirichlet = list(dirichlet)
        self.fault_plan = fault_plan
        if isinstance(assemble, str):
            assemble = resolve_assembler(assemble, mesh, params)
        self.assemble = assemble or assemble_momentum_rhs
        self.pressure = pressure_solver or PressureSolver(mesh)
        self.sweeps = int(sweeps_per_step)
        self.max_dt_halvings = int(max_dt_halvings)
        self.blowup_factor = float(blowup_factor)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_dir = checkpoint_dir
        self.keep_checkpoints = max(1, int(keep_checkpoints))
        self._plan = get_plan(mesh)
        self.mass = self._plan.lumped_mass()
        self.velocity = np.zeros((mesh.nnode, 3))
        self.pressure_field = np.zeros(mesh.nnode)
        # this trajectory's span of its last pressure solutions: where each solve starts
        self.pressure_basis = ProjectionBasis()
        self._speed: Optional[float] = None  # max |u| of self.velocity, once known
        self.time = 0.0
        self.step_count = 0
        self.history: List[StepReport] = []

    # ------------------------------------------------------------------
    def set_velocity(self, velocity: np.ndarray) -> None:
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.shape != self.velocity.shape:
            raise ValueError(
                f"velocity must be {self.velocity.shape}, got {velocity.shape}"
            )
        self.velocity[...] = velocity
        self._apply_bcs(self.velocity)
        self._speed = None

    def _apply_bcs(self, field: np.ndarray) -> None:
        for bc in self.dirichlet:
            bc.apply(field, self.mesh.coords)

    # ------------------------------------------------------------------
    def max_divergence(self, velocity: Optional[np.ndarray] = None) -> float:
        """Max |div u| over elements (projection-quality diagnostic)."""
        u = self.velocity if velocity is None else velocity
        return float(_max_divergence(self._plan, u[None])[0])

    def kinetic_energy(self) -> float:
        """Mass-weighted kinetic energy ``0.5 sum_m m |u|^2``."""
        u = self.velocity[None]
        return float(_kinetic_energy(self.mass, (u * u).sum(axis=2))[0])

    # ------------------------------------------------------------------
    def _rk_coeffs(self) -> Tuple[float, ...]:
        if self.sweeps == 3:
            return _RK3_COEFFS
        return tuple((k + 1.0) / self.sweeps for k in range(self.sweeps))

    def _umax(self) -> float:
        """Max ``|u|`` of the current field: the last committed step's
        ``max_velocity`` (the same bits), else one pass over the field."""
        if self._speed is None:
            self._speed = (
                float(np.linalg.norm(self.velocity, axis=1).max()) if self.velocity.size else 0.0
            )
        return self._speed

    @property
    def _trajectories(self) -> Tuple["FractionalStepSolver"]:
        return (self,)

    def _sweep(self, u: np.ndarray) -> np.ndarray:
        """One RHS sweep of the one-row stack ``u``: ``assemble`` as the
        degenerate batch."""
        return self.assemble(self.mesh, u[0], self.params)[None]

    def advance(self, dt: float) -> StepReport:
        """One fractional step of size ``dt``.

        Stage guards (NaN/Inf, CFL blow-up) roll the step back to the
        pre-step state and retry with a halved ``dt`` -- up to
        ``max_dt_halvings`` times before a structured
        :class:`IntegrationError`.  A successful step commits state,
        counters and (when configured) the periodic checkpoint.
        """
        return self._advance(_positive_dt(dt))

    def _advance(
        self, dt_eff: float, failure: Optional[_StageFailure] = None
    ) -> StepReport:
        """:meth:`advance`'s rollback loop.  ``failure`` is the guard trip of
        an attempt already made at ``dt_eff`` (a detached campaign row's
        lockstep attempt): it is this step's first rollback, so the loop
        goes on at ``dt_eff / 2`` within the same budget."""
        for retry in range(self.max_dt_halvings + 1):
            if retry or failure is None:
                try:
                    with get_tracer().span(
                        "step", step=self.step_count + 1, dt=dt_eff, retry=retry
                    ):
                        (attempt,) = _attempt([self], self._sweep, dt_eff)
                        if isinstance(attempt, _StageFailure):
                            raise attempt
                    break
                except _StageFailure as exc:
                    failure = exc
            # _attempt left self untouched: "rollback" is simply keeping the
            # pre-step state and shrinking dt.
            record_escalation(
                "Rollback",
                "resilience.rollbacks",
                step=self.step_count + 1,
                stage=failure.stage,
                reason=failure.reason,
                dt=dt_eff,
            )
            dt_eff *= 0.5
        else:
            assert failure is not None
            raise IntegrationError(
                f"step {self.step_count + 1} failed after "
                f"{self.max_dt_halvings} dt-halvings "
                f"(last dt={dt_eff * 2.0:.3e}): {failure}",
                step=self.step_count + 1,
                dt=dt_eff * 2.0,
                stage=failure.stage,
                reason=failure.reason,
            )

        return self._commit_step(dt_eff, *attempt)

    def _commit_step(
        self,
        dt_eff: float,
        u: np.ndarray,
        result,
        image: np.ndarray,
        diagnostics: Tuple[float, float, float],
        t_assembly: float,
        t_pressure: float,
    ) -> StepReport:
        """Commit an accepted step: state, projection basis (``image`` is
        ``A result.x``; a solve that climbed the ladder restarts it),
        counters, history, checkpoint.  Nothing else changes the basis, so a
        rolled-back attempt leaves it as it was."""
        registry = get_registry()
        registry.counter("fstep.steps").inc()
        registry.counter("fstep.assemblies").inc(self.sweeps)
        registry.histogram("fstep.pressure_iterations").record(result.iterations)

        self.velocity = u
        self._speed = diagnostics[0]
        self.pressure_field = result.x
        self.pressure_basis.extend(result.x, image, restart=result.rung > 0)
        self.time += dt_eff
        self.step_count += 1
        report = StepReport(
            step=self.step_count,
            time=self.time,
            dt=dt_eff,
            assembly_seconds=t_assembly,
            pressure_seconds=t_pressure,
            pressure_iterations=result.iterations,
            max_velocity=diagnostics[0],
            max_divergence=diagnostics[1],
            kinetic_energy=diagnostics[2],
        )
        self.history.append(report)
        if (
            self.checkpoint_every > 0
            and self.checkpoint_dir is not None
            and self.step_count % self.checkpoint_every == 0
        ):
            self.checkpoint()
        return report

    # -- checkpoint / restart ------------------------------------------
    def checkpoint(self, path: Optional[str] = None) -> str:
        """Write a restartable ``.npz`` checkpoint; returns the path.

        Defaults to ``checkpoint_dir/checkpoint_<step>.npz`` (and prunes
        the directory down to ``keep_checkpoints`` generations); pass an
        explicit ``path`` for ad-hoc checkpoints (no pruning).
        """
        auto = path is None
        if path is None:
            if self.checkpoint_dir is None:
                raise ValueError(
                    "no checkpoint_dir configured; pass an explicit path"
                )
            path = checkpoint_name(self.checkpoint_dir, self.step_count)
        with get_tracer().span("checkpoint", step=self.step_count, path=path):
            save_checkpoint(
                path,
                velocity=self.velocity,
                pressure=self.pressure_field,
                time=self.time,
                step=self.step_count,
                nnode=self.mesh.nnode,
                nelem=self.mesh.nelem,
                basis=self.pressure_basis.x,
                basis_image=self.pressure_basis.ax,
            )
        get_registry().counter("resilience.checkpoints").inc()
        if auto:
            prune_checkpoints(self.checkpoint_dir, keep=self.keep_checkpoints)
        return path

    def restart(self, path: str) -> "FractionalStepSolver":
        """Restore state from a checkpoint written by :meth:`checkpoint`.

        The restored run is bitwise identical to the uninterrupted one
        (full-precision state, deterministic assembly and solves).  Prior
        in-memory ``history`` is cleared -- it described a different
        trajectory prefix.  Returns ``self`` for chaining::

            solver = FractionalStepSolver(mesh, params).restart(path)
        """
        state = load_checkpoint(path)
        return self._restore(state)

    def _restore(self, state: CheckpointState) -> "FractionalStepSolver":
        state.validate_against(self.mesh.nnode, self.mesh.nelem)
        self.velocity = state.velocity
        self.pressure_field = state.pressure
        self.pressure_basis = ProjectionBasis(state.basis, state.basis_image)
        self.time = state.time
        self.step_count = state.step
        self.history = []
        self._apply_bcs(self.velocity)
        self._speed = None
        return self

    def restart_latest(
        self, directory: Optional[str] = None
    ) -> "FractionalStepSolver":
        """Restore from the newest loadable checkpoint in ``directory``.

        A truncated or corrupt newest generation is skipped (counted in
        ``resilience.checkpoint_fallbacks`` with a ``CheckpointFallback``
        span) and the previous generation is tried -- the reason
        :meth:`checkpoint` keeps ``keep_checkpoints >= 2`` generations.
        Raises :class:`~repro.resilience.checkpoint.CheckpointError` when
        no checkpoint in the directory loads.
        """
        directory = directory if directory is not None else self.checkpoint_dir
        if directory is None:
            raise ValueError("no checkpoint_dir configured; pass a directory")
        candidates = list_checkpoints(directory)
        if not candidates:
            raise CheckpointError(f"no checkpoints in {directory!r}")
        last_error: Optional[CheckpointError] = None
        for path in reversed(candidates):
            try:
                state = load_checkpoint(path)
                state.validate_against(self.mesh.nnode, self.mesh.nelem)
            except CheckpointError as exc:
                last_error = exc
                record_escalation(
                    "CheckpointFallback",
                    "resilience.checkpoint_fallbacks",
                    path=path,
                    reason=str(exc),
                )
                continue
            return self._restore(state)
        raise CheckpointError(
            f"no loadable checkpoint in {directory!r} "
            f"({len(candidates)} candidates; last error: {last_error})"
        )


class BatchCampaign(_Driver):
    """``S`` fractional-step trajectories advanced in lockstep.

    A parameter campaign (different viscosity / density / forcing /
    Vreman constant, one shared mesh) runs all ``S`` momentum predictors
    through **one** batched assembly per Runge-Kutta sweep
    (:meth:`repro.core.unified.UnifiedAssembler.run_batch`) instead of
    ``S`` serial assemblies, and then through **one** multi-right-hand-side
    pressure solve and one stacked projection per step
    (:meth:`PressureSolver.solve` on the ``(S, nnode, 3)`` predictors).
    Each scenario's trajectory is bit-identical to a solo
    :class:`FractionalStepSolver` run of the same configuration at the
    same ``vector_dim``.

    Fault isolation: a scenario whose predictor or pressure/projection
    guard trips is *permanently detached* from the lockstep batch
    (counted in ``resilience.batch_isolations`` with a
    ``BatchIsolation`` span) and from then on advances alone through the
    ordinary :meth:`FractionalStepSolver.advance` rollback machinery --
    the failed lockstep attempt is its step's first rollback, so the row
    rolls back exactly as its solo run would.  The surviving ``S - 1``
    scenarios keep the batched fast path and their results are untouched.

    Parameters
    ----------
    mesh:
        Shared tetrahedral mesh.
    scenarios:
        A :class:`~repro.core.batch.ScenarioBatch` or a sequence of
        :class:`AssemblyParams` (batched on the fly).
    variant, mode:
        DSL kernel variant and execution mode (``"compiled"`` /
        ``"codegen"`` / ``"interpreted"``) for the batched assembly.
    vector_dim:
        Element-group size (default: the paper's CPU choice), shared by
        the batched sweep and every detached scenario's solo assembly, so
        both stay bit-identical.
    dirichlet, sweeps_per_step, max_dt_halvings, blowup_factor:
        Forwarded to every per-scenario solver.
    pressure_solver:
        Shared :class:`PressureSolver` (AMG setup paid once); defaults
        to a fresh solver on ``mesh``.
    fault_plans:
        Optional per-scenario sequence of
        :class:`~repro.resilience.faults.FaultPlan` (``None`` entries
        allowed); scenario ``s``'s plan corrupts only its own
        ``"momentum_rhs"`` sweeps.
    """

    def __init__(
        self,
        mesh: TetMesh,
        scenarios,
        variant: str = "RSP",
        mode: str = "compiled",
        vector_dim: Optional[int] = None,
        dirichlet: Sequence[DirichletBC] = (),
        pressure_solver: Optional[PressureSolver] = None,
        sweeps_per_step: int = 3,
        max_dt_halvings: int = 4,
        blowup_factor: float = 100.0,
        fault_plans: Optional[Sequence] = None,
    ) -> None:
        from ..core.batch import ScenarioBatch
        from ..core.unified import UnifiedAssembler

        if not isinstance(scenarios, ScenarioBatch):
            scenarios = ScenarioBatch(scenarios)
        self.mesh = mesh
        self.batch = scenarios
        self.variant = variant.upper()
        self.mode = mode
        S = self.batch.size
        if fault_plans is None:
            fault_plans = [None] * S
        if len(fault_plans) != S:
            raise ValueError(
                f"fault_plans must have one entry per scenario "
                f"({S}), got {len(fault_plans)}"
            )
        self.assembler = UnifiedAssembler(
            mesh, self.batch[0], mode=mode, vector_dim=vector_dim
        )
        self.pressure = pressure_solver or PressureSolver(mesh)
        self.solvers: List[FractionalStepSolver] = [
            FractionalStepSolver(
                mesh,
                self.batch[s],
                dirichlet=dirichlet,
                assemble=self._solo_assemble(self.batch[s]),
                pressure_solver=self.pressure,
                sweeps_per_step=sweeps_per_step,
                max_dt_halvings=max_dt_halvings,
                blowup_factor=blowup_factor,
                fault_plan=fault_plans[s],
            )
            for s in range(S)
        ]
        self._detached: set = set()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.batch.size

    @property
    def _trajectories(self) -> List[FractionalStepSolver]:
        return self.solvers

    @property
    def detached(self) -> Tuple[int, ...]:
        """Scenarios that left the lockstep batch (sorted, permanent)."""
        return tuple(sorted(self._detached))

    def _solo_assemble(self, params: AssemblyParams) -> Callable:
        """Solo assembly closure sharing the campaign's scenario cache."""
        asm = self.assembler._scenario_assembler(params)
        variant = self.variant

        def assemble(mesh, velocity, p):
            return asm.assemble(variant, velocity)

        return assemble

    def set_velocities(self, velocity: np.ndarray) -> None:
        """Set initial velocities: one shared ``(nnode, 3)`` field or
        per-scenario ``(S, nnode, 3)``."""
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.shape == (self.mesh.nnode, 3):
            for solver in self.solvers:
                solver.set_velocity(velocity)
        elif velocity.shape == (self.size, self.mesh.nnode, 3):
            for s, solver in enumerate(self.solvers):
                solver.set_velocity(velocity[s])
        else:
            raise ValueError(
                f"velocity must be ({self.mesh.nnode}, 3) shared or "
                f"({self.size}, {self.mesh.nnode}, 3), got {velocity.shape}"
            )

    def velocities(self) -> np.ndarray:
        """Stacked ``(S, nnode, 3)`` per-scenario velocity fields."""
        return np.stack([solver.velocity for solver in self.solvers])

    # ------------------------------------------------------------------
    def _detach(self, s: int, exc: _StageFailure) -> None:
        record_escalation(
            "BatchIsolation",
            "resilience.batch_isolations",
            scenario=s,
            stage=exc.stage,
            reason=exc.reason,
        )
        self._detached.add(s)

    def advance(self, dt: float) -> List[StepReport]:
        """One lockstep time step; returns per-scenario step reports.

        Active scenarios share one batched assembly per RK sweep, then one
        block pressure solve, projection and set of guards
        (:func:`_finish_steps`).  A guard trip detaches that scenario (its
        state is still pre-step) and hands the failure to its solo solver's
        rollback loop, which goes on at ``dt/2`` -- other scenarios commit
        their batched results untouched.
        Previously detached scenarios advance solo.
        """
        from ..core.batch import ScenarioBatch

        dt = _positive_dt(dt)
        S = self.size
        registry = get_registry()
        reports: List[Optional[StepReport]] = [None] * S
        active = [s for s in range(S) if s not in self._detached]
        with get_tracer().span(
            "campaign_step", scenarios=S, active=len(active), dt=dt
        ):
            if active:
                registry.counter("fstep.batch_steps").inc()
                registry.counter("fstep.batch_lockstep_scenarios").inc(
                    len(active)
                )
                sub = self.batch if len(active) == S else ScenarioBatch(
                    [self.batch[s] for s in active]
                )
                outcomes = _attempt(
                    [self.solvers[s] for s in active],
                    lambda u: self.assembler.run_batch(self.variant, sub, u),
                    dt,
                )
                for s, outcome in zip(active, outcomes):
                    sv = self.solvers[s]
                    if isinstance(outcome, _StageFailure):
                        # sv state is still pre-step: detach; the failed
                        # lockstep attempt is its solo step's first rollback.
                        self._detach(s, outcome)
                        reports[s] = sv._advance(dt, outcome)
                    else:
                        reports[s] = sv._commit_step(dt, *outcome)
            for s in range(S):
                if reports[s] is None:
                    reports[s] = self.solvers[s].advance(dt)
        return reports

    def checkpoint(self, directory: str) -> List[str]:
        """Checkpoint every scenario into ``directory``; returns paths.

        Written as ``scenario_<s>/checkpoint_<step>.npz`` so a drained
        campaign can be resumed per scenario via
        :meth:`FractionalStepSolver.restart_latest`.
        """
        paths = []
        for s, solver in enumerate(self.solvers):
            sub = os.path.join(directory, f"scenario_{s}")
            path = checkpoint_name(sub, solver.step_count)
            paths.append(solver.checkpoint(path))
        return paths
