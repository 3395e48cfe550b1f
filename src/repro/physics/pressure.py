"""Pressure-Poisson projection step of the fractional-step scheme.

For the incompressible fractional-step method, after the explicit momentum
predictor the pressure satisfies a Poisson problem

.. math:: \\int \\nabla q \\cdot \\nabla p \\; dV
          = \\frac{\\rho}{\\Delta t} \\int q \\, \\nabla\\!\\cdot u^* \\; dV

(pure Neumann: pressure defined up to a constant).  This module assembles
the P1 stiffness (Laplacian) matrix and the divergence RHS, and solves with
AMG-preconditioned CG, projecting out the constant nullspace.

The solve climbs a degradation ladder before giving up (Alya's production
reality: a campaign must not die on one hard step): plain CG(AMG) first;
on breakdown or non-convergence, deflated CG with a piecewise-constant
coarse space from a mesh partition (Alya's own production rescue); then CG
with a stronger (more smoothing, denser-aggregation) AMG hierarchy and a
larger iteration budget.  Only when every rung fails does a structured
:class:`~repro.solvers.cg.SolverError` surface.  Each climb increments
``resilience.solver_escalations`` and emits a ``SolverEscalation`` span.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..fem.mesh import TetMesh
from ..fem.plan import get_plan
from ..obs.metrics import MetricsRegistry, get_registry
from ..solvers.amg import SmoothedAggregationAMG
from ..solvers.cg import SolveResult, SolverError, conjugate_gradient
from ..solvers.deflation import deflated_cg, partition_coarse_space

__all__ = ["assemble_laplacian", "divergence_rhs", "PressureSolver"]


def assemble_laplacian(mesh: TetMesh) -> sp.csr_matrix:
    """P1 stiffness matrix ``K_ab = sum_e V_e grad N_a . grad N_b``, formed
    as ``sum_i De_i^T diag(V) De_i`` from the plan's elemental derivatives."""
    plan = get_plan(mesh)
    vols = sp.diags(plan.geometry().volumes)
    k = sum(de.T @ (vols @ de) for de in plan.p1_derivatives().elemental)
    return k.tocsr()  # from CSC: column indices come out sorted


def divergence_rhs(
    mesh: TetMesh, velocity: np.ndarray, density: float, dt: float
) -> np.ndarray:
    """RHS ``-(rho/dt) int N_a div(u) dV`` (P1, constant divergence/element).

    The sign matches the stiffness-form Poisson operator: with
    ``K_ab = int grad N_a . grad N_b`` (weakly ``-laplacian``), solving
    ``K p = -(rho/dt) int N div u`` gives ``laplacian p = (rho/dt) div u``,
    so the corrector ``u -= (dt/rho) grad p`` removes the divergence.
    """
    nodal = get_plan(mesh).p1_derivatives().nodal
    div = sum(dn @ velocity[:, i] for i, dn in enumerate(nodal))
    return -(density / dt) * div


@dataclasses.dataclass
class PressureSolver:
    """AMG-preconditioned CG solver for the pure-Neumann pressure problem.

    Parameters
    ----------
    mesh:
        The mesh; the Laplacian and AMG hierarchy are built once.
    tol, maxiter:
        CG controls.
    use_amg:
        Disable to run Jacobi-preconditioned CG instead (comparison knob
        used by the solver benchmarks).
    max_rung:
        Top rung of the degradation ladder: 0 = plain CG only (the seed
        behaviour, returning unconverged results silently), 1 = escalate
        to deflated CG, 2 (default) = also try the stronger-AMG rung.
        With ``max_rung > 0`` an exhausted ladder raises a structured
        :class:`~repro.solvers.cg.SolverError` instead of silently
        returning garbage.
    deflation_subdomains:
        Coarse-space size for the deflation rung (piecewise-constant over
        an RCB node partition).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; a
        ``("cg", "breakdown")`` fault sabotages the rung-0 matvec into
        non-SPD territory so chaos tests can force an escalation.
    tracer, metrics:
        Escalation observability (``SolverEscalation`` spans and the
        ``resilience.solver_escalations`` counter).
    """

    mesh: TetMesh
    tol: float = 1e-8
    maxiter: int = 500
    use_amg: bool = True
    max_rung: int = 2
    deflation_subdomains: int = 8
    fault_plan: Optional[object] = dataclasses.field(default=None, repr=False)
    tracer: Optional[object] = dataclasses.field(default=None, repr=False)
    metrics: Optional[MetricsRegistry] = dataclasses.field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        # shared by every solver on this mesh, immutable once stored
        self._plan = plan = get_plan(self.mesh)
        self.laplacian = plan.cached_operator("laplacian")
        if self.laplacian is None:
            self.laplacian = assemble_laplacian(self.mesh)
            plan.store_operator("laplacian", self.laplacian)
        self._amg: Optional[SmoothedAggregationAMG] = None
        if self.use_amg:
            self._amg = plan.cached_operator("amg")
            if self._amg is None:
                self._amg = SmoothedAggregationAMG(self.laplacian)
                plan.store_operator("amg", self._amg)
                registry = get_registry() if self.metrics is None else self.metrics
                registry.counter("pressure.hierarchy_builds").inc()
            self._precond = self._amg.vcycle
        else:
            diag = self.laplacian.diagonal()
            inv = np.where(diag > 0, 1.0 / np.where(diag == 0, 1, diag), 1.0)
            self._precond = lambda r: inv * r
        # rescue rungs are built lazily -- a healthy campaign never pays
        # for them.
        self._deflation_basis: Optional[sp.csr_matrix] = None
        self._strong_amg: Optional[SmoothedAggregationAMG] = None

    def _project_constant(self, v: np.ndarray) -> np.ndarray:
        return v - v.mean()

    def _preconditioner(self):
        return lambda r: self._project_constant(self._precond(r))

    # -- rescue rungs ----------------------------------------------------
    def _coarse_space(self) -> sp.csr_matrix:
        """Piecewise-constant deflation basis over an RCB node partition.

        Node labels derive deterministically from the element partition:
        each node takes the smallest label among its elements.
        """
        if self._deflation_basis is None:
            from ..parallel.partition import rcb_partition

            nsub = max(1, min(self.deflation_subdomains, self.mesh.nelem))
            elem_labels = rcb_partition(self.mesh, nsub)
            node_labels = np.full(self.mesh.nnode, np.iinfo(np.int64).max)
            np.minimum.at(
                node_labels,
                self.mesh.connectivity.ravel(),
                np.repeat(elem_labels, 4),
            )
            self._deflation_basis = partition_coarse_space(node_labels)
        return self._deflation_basis

    def _stronger_amg(self) -> SmoothedAggregationAMG:
        """Heavier hierarchy: more smoothing sweeps, denser aggregation."""
        if self._strong_amg is None:
            self._strong_amg = SmoothedAggregationAMG(
                self.laplacian,
                theta=0.04,
                presmooth=3,
                postsmooth=3,
            )
        return self._strong_amg

    def _solve_rung(
        self,
        rung: int,
        rhs: np.ndarray,
        x0: Optional[np.ndarray],
        matvec,
    ) -> SolveResult:
        if rung == 0:
            return conjugate_gradient(
                matvec,
                rhs,
                x0=x0,
                tol=self.tol,
                maxiter=self.maxiter,
                preconditioner=self._preconditioner(),
            )
        if rung == 1:
            return deflated_cg(
                self.laplacian,
                rhs,
                self._coarse_space(),
                x0=x0,
                tol=self.tol,
                maxiter=self.maxiter,
                preconditioner=self._preconditioner(),
            )
        strong = self._stronger_amg()
        return conjugate_gradient(
            lambda p: self.laplacian @ p,
            rhs,
            x0=x0,
            tol=self.tol,
            maxiter=4 * self.maxiter,
            preconditioner=lambda r: self._project_constant(strong.vcycle(r)),
        )

    _RUNG_NAMES = ("cg", "cg+deflation", "cg+strong-amg")

    def solve(
        self,
        velocity: np.ndarray,
        density: float,
        dt: float,
        x0: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Solve for the pressure given the predictor velocity.

        Escalates through the degradation ladder (see class docstring);
        the returned result carries the serving rung in ``result.rung``
        (0 = fast path).
        """
        rhs = self._project_constant(
            divergence_rhs(self.mesh, velocity, density, dt)
        )

        def matvec(p: np.ndarray) -> np.ndarray:
            return self.laplacian @ p

        sabotage = False
        if self.fault_plan is not None:
            spec = self.fault_plan.draw("cg")
            sabotage = spec is not None and spec.kind == "breakdown"
        if sabotage:
            # sabotaged operator: -A is negative semi-definite, so CG hits
            # non-positive curvature on its first iteration.
            def rung0_matvec(p: np.ndarray) -> np.ndarray:
                return -(self.laplacian @ p)
        else:
            rung0_matvec = matvec

        attempts = []
        for rung in range(self.max_rung + 1):
            try:
                result = self._solve_rung(
                    rung, rhs, x0, rung0_matvec if rung == 0 else matvec
                )
            except SolverError as exc:
                result = None
                attempts.append((self._RUNG_NAMES[rung], str(exc)))
            else:
                if result.converged and np.isfinite(result.x).all():
                    result.x = self._project_constant(result.x)
                    result.rung = rung
                    return result
                attempts.append(
                    (
                        self._RUNG_NAMES[rung],
                        f"unconverged after {result.iterations} iterations "
                        f"(residual {result.residual_norm:.3e})",
                    )
                )
            if rung == self.max_rung:
                break
            from ..resilience.ladders import record_escalation

            record_escalation(
                "SolverEscalation",
                "resilience.solver_escalations",
                self.tracer,
                self.metrics,
                from_rung=self._RUNG_NAMES[rung],
                to_rung=self._RUNG_NAMES[rung + 1],
            )

        if self.max_rung == 0 and result is not None:
            # seed behaviour: single rung, hand the unconverged result back
            result.x = self._project_constant(result.x)
            result.rung = 0
            return result
        raise SolverError(
            "pressure ladder exhausted: "
            + "; ".join(f"{name}: {why}" for name, why in attempts),
            iterations=None if result is None else result.iterations,
            residual_norm=None if result is None else result.residual_norm,
            target=self.tol,
        )

    def pressure_gradient(self, pressure: np.ndarray) -> np.ndarray:
        """Nodal (lumped) pressure gradient ``(nnode, 3)`` for the corrector.

        Computes ``int N_a dp/dx_i dV`` per node divided by the lumped mass,
        giving a nodal gradient field.
        """
        nodal = self._plan.p1_derivatives().nodal
        acc = np.stack([dn @ pressure for dn in nodal], axis=1)
        return acc / self._plan.lumped_mass()[:, None]
