"""Pressure-Poisson projection step of the fractional-step scheme.

For the incompressible fractional-step method, after the explicit momentum
predictor the pressure satisfies a Poisson problem

.. math:: \\int \\nabla q \\cdot \\nabla p \\; dV
          = \\frac{\\rho}{\\Delta t} \\int q \\, \\nabla\\!\\cdot u^* \\; dV

(pure Neumann: pressure defined up to a constant).  This module assembles
the P1 stiffness (Laplacian) matrix and the divergence RHS, and solves with
AMG-preconditioned CG, projecting out the constant nullspace.  A lockstep
campaign's ``S`` predictors are one ``(nnode, S)`` block solve on the shared
Laplacian and hierarchy; scenario ``s`` of a stack is byte-equal to the solve
of that scenario alone (the column-exactness table in
:mod:`repro.solvers.cg`: means and dots on scenario-major rows).

Each trajectory's solve starts from Fischer's projection of successive
right-hand sides (P. F. Fischer, CMAME 1998; Nek5000's pressure): the
trajectory keeps the A-orthonormal span of its last :data:`PROJECTION_DEPTH`
solutions (:class:`ProjectionBasis`, state of the trajectory, not of the
shared solver) and starts CG from the projection of ``b`` onto it.  CG still
judges convergence on the full solution, ``||b - A x|| <= tol ||b||``.  The
divergence, gradient and max-divergence products around the solve are one
pass over the three axes' operators
(:meth:`~repro.solvers.cg.VectorPhase.axes`, in C once the hierarchy is).

The solve climbs a degradation ladder before giving up (Alya's production
reality: a campaign must not die on one hard step): plain CG(AMG) first;
on breakdown or non-convergence, deflated CG with a piecewise-constant
coarse space from a mesh partition (Alya's own production rescue); then CG
with a stronger (more smoothing, denser-aggregation) AMG hierarchy and a
larger iteration budget -- one column at a time: a column of a block that
fails rung 0 climbs alone.  Only when every rung fails does a structured
:class:`~repro.solvers.cg.SolverError` surface.  Each climb increments
``resilience.solver_escalations`` and emits a ``SolverEscalation`` span.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..fem.mesh import TetMesh
from ..fem.plan import get_plan
from ..obs.metrics import get_registry
from ..solvers.amg import SmoothedAggregationAMG
from ..solvers.cg import (
    SolveResult,
    SolverError,
    VectorPhase,
    conjugate_gradient,
)
from ..solvers.deflation import deflated_cg, partition_coarse_space

__all__ = [
    "assemble_laplacian",
    "divergence_rhs",
    "PressureSolver",
    "ProjectionBasis",
    "PROJECTION_DEPTH",
]

#: Solutions a trajectory's projection basis holds (Fischer's L); when full,
#: the basis restarts from the newest solution.
PROJECTION_DEPTH = 8

#: Coarse-space size of the deflation rung (piecewise-constant over an RCB
#: node partition).
DEFLATION_SUBDOMAINS = 8


def assemble_laplacian(mesh: TetMesh) -> sp.csr_matrix:
    """P1 stiffness matrix ``K_ab = sum_e V_e grad N_a . grad N_b``, formed
    as ``sum_i De_i^T diag(V) De_i`` from the plan's elemental derivatives."""
    plan = get_plan(mesh)
    vols = sp.diags(plan.geometry().volumes)
    k = sum(de.T @ (vols @ de) for de in plan.p1_derivatives().elemental)
    return k.tocsr()  # from CSC: column indices come out sorted


def _derivatives(plan, which: str, x: np.ndarray, mass=None) -> np.ndarray:
    """:meth:`~repro.solvers.cg.VectorPhase.axes` over the plan's ``which``
    (``"nodal"`` / ``"elemental"``) P1 derivatives, in the form the mesh's
    shared hierarchy serves (one C pass once adopted), numpy's without one."""
    amg = plan.cached_operator("amg")
    phase = VectorPhase() if amg is None else amg.native
    return phase.axes(getattr(plan.p1_derivatives(), which), x, mass)


def stacked_divergence(plan, which: str, velocity: np.ndarray) -> np.ndarray:
    """``sum_i D_i u_i`` over the plan's ``which`` P1 derivatives: a vector
    from one ``(nnode, 3)`` field, an ``(rows, S)`` block from a stack
    ``(S, nnode, 3)``."""
    components = np.asarray(velocity).T  # (3, nnode[, S]), read in place
    if components.ndim == 3 and components.shape[2] > 1:
        components = np.ascontiguousarray(components)  # a scenario is a lane
    return _derivatives(plan, which, components)


def divergence_rhs(
    mesh: TetMesh, velocity: np.ndarray, density, dt: float
) -> np.ndarray:
    """RHS ``-(rho/dt) int N_a div(u) dV`` (P1, constant divergence/element);
    the ``(nnode, S)`` block of a stack with per-scenario ``density``.

    The sign matches the stiffness-form Poisson operator: with
    ``K_ab = int grad N_a . grad N_b`` (weakly ``-laplacian``), solving
    ``K p = -(rho/dt) int N div u`` gives ``laplacian p = (rho/dt) div u``,
    so the corrector ``u -= (dt/rho) grad p`` removes the divergence.
    """
    return -(np.asarray(density) / dt) * stacked_divergence(get_plan(mesh), "nodal", velocity)


class ProjectionBasis:
    """One trajectory's A-orthonormal span of its last pressure solutions and
    their images under A, a row each of :attr:`x` and :attr:`ax`.

    A solve starts from :meth:`guess`; a committed step :meth:`extend` s the
    span by its solution, or restarts it from that solution when the span is
    full (:data:`PROJECTION_DEPTH`) or the solve climbed the ladder.  Every
    operand is a contiguous vector: BLAS's kernels then compute the same bits
    at any alignment, so a trajectory projects alike in a block solve and
    alone (a strided vector takes another kernel).
    """

    def __init__(self, x: Optional[np.ndarray] = None, ax: Optional[np.ndarray] = None):
        self.size, self._rows = 0, None  # (2, PROJECTION_DEPTH, n) once a vector is in
        for v, av in zip(() if x is None else x, () if ax is None else ax):
            self._append(v, av)

    @property
    def x(self) -> np.ndarray:
        return self._rows[0, : self.size] if self.size else np.empty((0, 0))

    @property
    def ax(self) -> np.ndarray:
        return self._rows[1, : self.size] if self.size else np.empty((0, 0))

    def _append(self, v: np.ndarray, av: np.ndarray, scale: float = 1.0) -> None:
        if self.size == PROJECTION_DEPTH:  # a longer restored basis keeps its first rows
            return
        if self._rows is None:
            self._rows = np.empty((2, PROJECTION_DEPTH, v.size))
        np.multiply(v, scale, out=self._rows[0, self.size])
        np.multiply(av, scale, out=self._rows[1, self.size])
        self.size += 1

    def guess(self, b: np.ndarray) -> np.ndarray:
        """``sum_i (x_i . b) x_i``: the A-orthogonal projection of the
        solution of ``A p = b`` onto the span (zeros while it is empty)."""
        if not self.size:
            return np.zeros(b.shape)
        return (self.x @ np.ascontiguousarray(b)) @ self.x

    def extend(self, p: np.ndarray, ap: np.ndarray, restart: bool = False) -> None:
        """Add the solution ``p`` (``ap = A p``), A-orthonormalised against
        the span; a full span, or ``restart``, restarts from it alone.  A
        solution already in the span (to ``1e-8`` in the A-norm) adds nothing."""
        if restart or self.size == PROJECTION_DEPTH:
            self.size = 0
        p, ap = np.ascontiguousarray(p), np.ascontiguousarray(ap)
        norm = whole = p @ ap
        if self.size:
            c = self.ax @ p  # x_i . A p
            p, ap = p - c @ self.x, ap - c @ self.ax
            norm = p @ ap
        if norm > 1e-16 * whole:  # false for NaN too
            self._append(p, ap, 1.0 / np.sqrt(norm))


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
        Disable to run Jacobi-preconditioned CG instead (the comparison
        ``tests/physics`` makes).
    max_rung:
        Top rung of the degradation ladder: 0 = plain CG only (the seed
        behaviour, returning unconverged results silently), 1 = escalate
        to deflated CG, 2 (default) = also try the stronger-AMG rung.
        With ``max_rung > 0`` an exhausted ladder raises a structured
        :class:`~repro.solvers.cg.SolverError` instead of silently
        returning garbage.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; a
        ``("cg", "breakdown")`` fault sabotages the rung-0 matvec into
        non-SPD territory so chaos tests can force an escalation.
    """

    mesh: TetMesh
    tol: float = 1e-8
    maxiter: int = 500
    use_amg: bool = True
    max_rung: int = 2
    fault_plan: Optional[object] = dataclasses.field(default=None, repr=False)

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
                get_registry().counter("pressure.hierarchy_builds").inc()
            self._precond = self._amg.vcycle
        else:
            diag = self.laplacian.diagonal()
            inv = np.where(diag > 0, 1.0 / np.where(diag == 0, 1, diag), 1.0)
            self._precond = lambda r: inv[:, None] * r
        # CG's vector phase, the nullspace projection among it, in the form that serves
        self._phase = self._amg.native if self.use_amg else VectorPhase()
        # rescue rungs are built lazily -- a healthy campaign never pays
        # for them.
        self._deflation_basis: Optional[sp.csr_matrix] = None
        self._strong_amg: Optional[SmoothedAggregationAMG] = None

    def _project_constant(self, v: np.ndarray) -> np.ndarray:
        """Remove each column's mean (a vector is one column)."""
        return self._phase.project(v)

    def _preconditioner(self, apply=None):
        apply = self._precond if apply is None else apply
        return lambda r: self._project_constant(apply(r))

    # -- rescue rungs ----------------------------------------------------
    def _coarse_space(self) -> sp.csr_matrix:
        """Piecewise-constant deflation basis over an RCB node partition.

        Node labels derive deterministically from the element partition:
        each node takes the smallest label among its elements.
        """
        if self._deflation_basis is None:
            from ..parallel.partition import rcb_partition

            nsub = max(1, min(DEFLATION_SUBDOMAINS, self.mesh.nelem))
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
        sabotage: bool = False,
    ):
        """Rung 0 takes an ``(n, S)`` block; the rescue rungs one column."""
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
        strong = rung == 2
        amg = self._stronger_amg() if strong else self._amg
        # a healthy rung iterates on its hierarchy's level-0 product (C once adopted);
        # sabotaged, -A is negative semi-definite: non-positive curvature at once
        operator = self.laplacian if amg is None else amg.native
        return conjugate_gradient(
            -self.laplacian if sabotage else operator,
            rhs,
            x0=x0,
            tol=self.tol,
            maxiter=4 * self.maxiter if strong else self.maxiter,
            preconditioner=self._preconditioner(amg.vcycle if strong else None),
        )

    _RUNG_NAMES = ("cg", "cg+deflation", "cg+strong-amg")

    def solve(
        self,
        velocity: np.ndarray,
        density,
        dt: float,
        bases: Optional[Sequence[ProjectionBasis]] = None,
    ):
        """Solve for the pressure given the predictor velocity.

        ``velocity`` is one ``(nnode, 3)`` predictor (one
        :class:`SolveResult` comes back) or a stack ``(S, nnode, 3)`` with
        per-scenario ``density`` (a list of ``S`` results, each byte-equal
        to the call made with that scenario alone).  ``bases`` holds one
        :class:`ProjectionBasis` per scenario: column ``s`` starts from
        ``bases[s].guess`` of its right-hand side (zeros without).  Rung 0
        is one block solve; a column it fails climbs the degradation ladder
        alone (see class docstring), and every result carries its serving
        rung in ``result.rung`` (0 = fast path).
        """
        velocity = np.asarray(velocity, dtype=np.float64)
        stack = velocity.reshape((-1,) + velocity.shape[-2:])
        ncol = stack.shape[0]
        rhs = self._project_constant(divergence_rhs(self.mesh, stack, density, dt))
        guess = np.zeros_like(rhs)
        for s, basis in enumerate(() if bases is None else bases):
            if basis.size:
                guess[:, s] = basis.guess(rhs[:, s])
        sabotaged = []
        if self.fault_plan is not None:
            for s in range(ncol):
                spec = self.fault_plan.draw("cg")
                if spec is not None and spec.kind == "breakdown":
                    sabotaged.append(s)
        # a sabotaged column gets its broken operator to itself
        healthy = [s for s in range(ncol) if s not in sabotaged]
        results: list = [None] * ncol
        for cols, sabotage in [(healthy, False)] + [([s], True) for s in sabotaged]:
            if cols:
                block = self._solve_rung(0, rhs[:, cols], guess[:, cols], sabotage)
                for s, result in zip(cols, block):
                    results[s] = self._climb(result, rhs[:, s], guess[:, s])
        return results[0] if velocity.ndim == 2 else results

    def _climb(self, result: SolveResult, rhs: np.ndarray, x0: np.ndarray) -> SolveResult:
        """Accept one column's rung-0 result or take it up the ladder."""
        attempts = []
        for rung in range(self.max_rung + 1):
            if rung:
                try:
                    result = self._solve_rung(rung, rhs, x0)
                except SolverError as exc:
                    result = None
                    attempts.append((self._RUNG_NAMES[rung], str(exc)))
            if result is not None:
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

    def image(self, pressure: np.ndarray) -> np.ndarray:
        """``A p`` of a vector or an ``(nnode, S)`` block, in the form CG
        iterates on (C once the hierarchy is adopted; column-exact)."""
        return self.laplacian @ pressure if self._amg is None else self._amg.native(pressure)

    def pressure_gradient(self, pressure: np.ndarray) -> np.ndarray:
        """Nodal (lumped) pressure gradient for the corrector: ``(nnode, 3)``
        of one pressure vector, ``(nnode, 3, S)`` of an ``(nnode, S)`` block.

        Computes ``int N_a dp/dx_i dV`` per node divided by the lumped mass,
        giving a nodal gradient field.
        """
        return _derivatives(self._plan, "nodal", pressure, self._plan.lumped_mass())
