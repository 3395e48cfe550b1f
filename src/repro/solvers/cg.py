"""Conjugate-gradient solver for the pressure-Poisson system.

The paper's fractional-step scheme solves a linear system for the pressure
each step; it is "usually not computationally demanding" thanks to the small
LES time steps, and the authors plan to delegate it to AMG libraries
(AMG4PSBLAS).  This substrate provides a native preconditioned CG so the
end-to-end examples run, with convergence histories for the tests.

One loop serves ``S`` independent right-hand sides on node-major ``(n, S)``
blocks (a vector is the one-column block) with per-column ``alpha``, ``beta``,
target, iteration count and history; a column that converges or breaks down
leaves the active set with its iterate frozen.  Only matrix traffic is shared:
**column ``s`` of any block call is byte-equal to the call made with that
column alone**.  What keeps that (measured, numpy 2.4 / scipy 1.17):

=====================================================  ====================
``csr @ X`` with ``X`` ``(n, S)``, incl. ``(n, 1)``     column-exact
``.sum(1)`` / ``.mean(1)`` of C-contiguous ``(S, n)``   exact for every S
                                                       (= the 1-D ``.sum()``)
``einsum('ns,ns->s')``, ``.sum(0)`` of ``(n, S)``       S = 1 differs: numpy
                                                       coalesces the unit
                                                       axis to pairwise sums
dense ``M @ B`` (gemm), ``einsum('ij,js->is')``         S-dependent; one gemv
                                                       per column is exact
BLAS ``ddot`` / ``np.linalg.norm``                     equals none of these
=====================================================  ====================

So products run on node-major blocks and every reduction over the node axis
on a scenario-major copy (:func:`scenario_rows`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..obs.metrics import get_registry
from ..obs.spans import get_tracer

__all__ = ["SolveResult", "VectorPhase", "conjugate_gradient", "SolverError"]

LinearOperator = Union[np.ndarray, sp.spmatrix, Callable[[np.ndarray], np.ndarray]]


class SolverError(RuntimeError):
    """An iterative solver failed to converge (or broke down).

    Carries the solve state at failure so telemetry and error handlers can
    diagnose without re-running: ``iterations`` done, ``residual_norm``
    reached, the full ``residual_history``, and the convergence ``target``.
    """

    def __init__(
        self,
        message: str,
        iterations: Optional[int] = None,
        residual_norm: Optional[float] = None,
        residual_history: Optional[List[float]] = None,
        target: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.residual_history = list(residual_history or [])
        self.target = target

    def context(self) -> dict:
        """Structured failure context (JSON-ready, history tail capped)."""
        return {
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "target": self.target,
            "residual_history": self.residual_history[-32:],
        }


@dataclasses.dataclass
class SolveResult:
    """Outcome of an iterative solve.

    ``rung`` records which rung of a degradation ladder served the solve
    (0 = fast path; see :class:`repro.physics.pressure.PressureSolver`).
    """

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    residual_history: List[float]
    rung: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveResult(iters={self.iterations}, "
            f"res={self.residual_norm:.3e}, converged={self.converged})"
        )


def scenario_rows(block: np.ndarray) -> np.ndarray:
    """Scenario-major C-contiguous ``(S, n)`` copy of a node-major ``(n, S)``
    block (a vector passes through): last-axis reductions ignore ``S``."""
    return np.ascontiguousarray(block.T)


def _columns(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The ``keep`` columns (last axis) as a C-contiguous copy; numpy's own
    ``v[:, keep]`` comes back column-major."""
    return np.ascontiguousarray(v[..., keep])


class VectorPhase:
    """The iteration's vector work between product and preconditioner, on
    ``(n, S)`` blocks with per-column scalars, and the derivative products
    around the solve (:meth:`axes`): the numpy form, which is the definition.
    An operator that *is* one (a hierarchy's
    :class:`~repro.solvers.native.NativeCycle`) serves the same calls from C
    once they matched these to the byte."""

    def dots(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-column ``u_s . v_s``."""
        return scenario_rows(u * v).sum(axis=1)

    def step(self, alpha, p, ap, x, r) -> np.ndarray:
        """``x += alpha p`` and ``r -= alpha A p`` in place; the new ``r_s . r_s``."""
        x += alpha * p
        r -= alpha * ap
        return self.dots(r, r)

    def direction(self, z, beta, p) -> np.ndarray:
        """The next search direction ``z + beta p`` (may reuse ``p``)."""
        return z + beta * p

    def project(self, v: np.ndarray) -> np.ndarray:
        """``v`` less each column's mean (a vector is one column)."""
        return v - scenario_rows(v).mean(axis=-1)

    def axes(self, ops, x: np.ndarray, mass: Optional[np.ndarray] = None) -> np.ndarray:
        """Products of a triple ``ops`` of CSR operators, one per axis: the
        sum ``ops[0] @ x[0] + ops[1] @ x[1] + ops[2] @ x[2]`` (a divergence;
        ``x`` is ``(3, n[, S])``), or, given ``mass``, ``ops[i] @ x``
        stacked on axis 1 and divided by ``mass`` row by row (a lumped
        gradient; ``x`` is ``(n[, S])``)."""
        if mass is None:
            return sum(m @ x[i] for i, m in enumerate(ops))
        out = np.stack([m @ x for m in ops], axis=1)
        return out / mass.reshape((-1,) + (1,) * (out.ndim - 1))


def conjugate_gradient(
    a: LinearOperator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    atol: float = 0.0,
    maxiter: int = 1000,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    raise_on_fail: bool = False,
) -> Union[SolveResult, List[SolveResult]]:
    """Preconditioned conjugate gradients for SPD systems, ``S``
    independent right-hand sides at a time.

    Parameters
    ----------
    a:
        SPD matrix (dense/sparse) or a callable applied to ``(n, k)``
        blocks of the still-active columns, column by column.
    b:
        Right-hand side: a vector (the one-column block; one
        :class:`SolveResult` comes back) or an ``(n, S)`` block (a list of
        ``S`` results).
    x0:
        Initial guess of ``b``'s shape (zeros by default).
    tol, atol:
        Column ``s`` converges when ``||r_s|| <= max(tol * ||b_s||, atol)``.
    preconditioner:
        Callable applying ``M^{-1}`` to ``(n, k)`` blocks; identity if
        omitted.
    raise_on_fail:
        Raise :class:`SolverError` for the first column that broke down or
        did not converge instead of returning its unconverged result.

    The call is one ``cg_solve`` span of the installed tracer, with
    ``columns`` and per-column iteration attributes; the process-wide
    registry (:func:`repro.obs.get_registry`) receives, per column, the
    ``cg.solves``, ``cg.iterations``, ``cg.failures`` counters and the
    ``cg.residual_norm`` / ``cg.solve_iterations`` histograms.

    Notes
    -----
    Singular-but-consistent systems (the pure-Neumann pressure problem) are
    handled by the caller projecting the nullspace out of ``b`` and of the
    iterates; see :mod:`repro.physics.pressure`.
    """
    b = np.asarray(b, dtype=np.float64)
    rhs = b.reshape(b.shape[0], -1)
    n, ncol = rhs.shape

    with get_tracer().span("cg_solve", n=n, columns=ncol) as span:
        matvec = a if callable(a) else (lambda v: a @ v)
        phase = a if isinstance(a, VectorPhase) else VectorPhase()
        solution = (
            np.zeros_like(rhs)
            if x0 is None
            else np.array(x0, dtype=np.float64).reshape(n, ncol)
        )
        bnorm = np.sqrt(phase.dots(rhs, rhs))
        target = np.maximum(tol * bnorm, atol)
        r = rhs - matvec(solution)
        rnorm = np.sqrt(phase.dots(r, r))
        history = [[float(v)] for v in rnorm]
        iterations = np.zeros(ncol, dtype=np.int64)
        converged = (bnorm == 0.0) | (rnorm <= target)
        for s in np.flatnonzero(bnorm == 0.0):
            solution[:, s] *= 0.0
            history[s] = [0.0]
        # a non-finite right-hand side can only break down: it never starts
        act = np.flatnonzero(~converged & np.isfinite(bnorm))
        broke = {int(s): 0 for s in np.flatnonzero(~np.isfinite(bnorm))}

        x, r, tgt = _columns(solution, act), _columns(r, act), target[act]
        if act.size:
            z = preconditioner(r) if preconditioner is not None else r
            p = z.copy()
            rz = phase.dots(r, z)

        def leave(gone: np.ndarray, it: int, *state):
            """Freeze the ``gone`` columns at their iterates; compact the rest."""
            nonlocal act, x
            iterations[act[gone]] = it
            solution[:, act[gone]] = x[:, gone]
            keep = ~gone
            act, x = act[keep], _columns(x, keep)
            return [_columns(v, keep) for v in state]

        for it in range(1, maxiter + 1):
            if not act.size:
                break
            ap = matvec(p)
            pap = phase.dots(p, ap)
            bad = ~(pap > 0.0)  # non-positive *or non-finite* curvature
            if bad.any():
                broke.update((int(s), it) for s in act[bad])
                r, p, ap, rz, pap, tgt = leave(bad, it, r, p, ap, rz, pap, tgt)
                if not act.size:
                    break
            rnorm = np.sqrt(phase.step(rz / pap, p, ap, x, r))
            for s, v in zip(act, rnorm):
                history[s].append(float(v))
            hit = rnorm <= tgt
            if hit.any():
                converged[act[hit]] = True
                r, p, rz, tgt = leave(hit, it, r, p, rz, tgt)
                if not act.size:
                    break
            z = preconditioner(r) if preconditioner is not None else r
            rz_new = phase.dots(r, z)
            p = phase.direction(z, rz_new / rz, p)
            rz = rz_new
        else:
            leave(np.ones(act.size, dtype=bool), maxiter)

        xs = scenario_rows(solution)
        results = [
            SolveResult(xs[s], int(iterations[s]), history[s][-1], bool(converged[s]), history[s])
            for s in range(ncol)
        ]
        registry = get_registry()
        registry.counter("cg.solves").inc(ncol)
        registry.counter("cg.iterations").inc(int(iterations.sum()))
        registry.counter("cg.failures").inc(int((~converged).sum()))
        for res in results:
            registry.histogram("cg.solve_iterations").record(res.iterations)
            registry.histogram("cg.residual_norm").record(res.residual_norm)
        if span is not None:
            span.attributes.update(
                iterations=int(iterations.sum()),
                column_iterations=iterations.tolist(),
                residual_norm=max(res.residual_norm for res in results),
                converged=bool(converged.all()),
                # which form an operator with forms served from (solvers.native)
                **getattr(a, "span_attributes", dict)(),
            )
        failed = np.flatnonzero(~converged)
        if raise_on_fail and failed.size:
            s = int(failed[0])
            if span is not None:
                span.attributes["error"] = "breakdown" if s in broke else "no_convergence"
            raise SolverError(
                f"CG breakdown: non-positive or non-finite curvature p.Ap "
                f"at iteration {broke[s]} (matrix not SPD?)"
                if s in broke
                else f"CG did not converge in {maxiter} iterations "
                f"(residual {history[s][-1]:.3e}, target {target[s]:.3e})",
                results[s].iterations,
                results[s].residual_norm,
                history[s],
                float(target[s]),
            )
        return results[0] if b.ndim == 1 else results
