"""Smoothed-aggregation algebraic multigrid.

The paper points at AMG4PSBLAS for the exascale pressure solve; this module
is the native substrate standing in for it: a classical smoothed-aggregation
AMG (Vanek/Mandel/Brezina) with

* greedy strength-based aggregation,
* Jacobi-smoothed tentative prolongators,
* damped-Jacobi pre/post smoothing,
* a dense coarse solve (pseudo-inverse, so the singular pure-Neumann
  pressure operator works),

usable standalone (``solve``) or as a CG preconditioner (``as_preconditioner``),
which is how :mod:`repro.physics.pressure` uses it.  The V-cycle takes a
vector or a node-major ``(n, S)`` block -- one sparse-times-dense product per
level and sweep, the dense coarse solve column by column (gemm is
``S``-dependent) -- and column ``s`` of a block is byte-equal to the cycle of
that column alone (the table in :mod:`repro.solvers.cg`).  ``_cycle`` is the
scipy form and the definition; :mod:`repro.solvers.native` holds the same cycle
in C, which serves (``amg.native``) only after matching it to the byte.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from .cg import SolveResult, scenario_rows

__all__ = ["AmgLevel", "SmoothedAggregationAMG"]

#: Coarsenings a hierarchy makes at most.
MAX_LEVELS = 10


@dataclasses.dataclass
class AmgLevel:
    """One level of the multigrid hierarchy."""

    a: sp.csr_matrix
    prolongator: Optional[sp.csr_matrix]  # None on the coarsest level
    diag_inv: np.ndarray
    restriction: Optional[sp.csr_matrix] = None  # prolongator.T, as CSR


def _strength_graph(a: sp.csr_matrix, theta: float) -> sp.csr_matrix:
    """Symmetric strength-of-connection filter: keep ``|a_ij| >=
    theta * sqrt(a_ii a_jj)``."""
    d = np.sqrt(np.abs(a.diagonal()))
    coo = a.tocoo()
    scale = d[coo.row] * d[coo.col]
    keep = (np.abs(coo.data) >= theta * scale) & (coo.row != coo.col)
    return sp.csr_matrix(
        (np.ones(keep.sum()), (coo.row[keep], coo.col[keep])), shape=a.shape
    )


def _aggregate(strength: sp.csr_matrix) -> np.ndarray:
    """Greedy aggregation; returns aggregate id per node (-1 never remains)."""
    n = strength.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices = strength.indptr, strength.indices
    next_agg = 0
    # pass 1: roots with fully-unaggregated neighbourhoods
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if (agg[nbrs] == -1).all():
            agg[i] = next_agg
            agg[nbrs] = next_agg
            next_agg += 1
    # pass 2: attach stragglers to a neighbouring aggregate
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        assigned = nbrs[agg[nbrs] != -1]
        if len(assigned):
            agg[i] = agg[assigned[0]]
        else:
            agg[i] = next_agg
            next_agg += 1
    return agg


class SmoothedAggregationAMG:
    """Smoothed-aggregation AMG hierarchy for an SPD (or singular
    consistent) sparse matrix.

    Parameters
    ----------
    a:
        System matrix (CSR convertible).
    theta:
        Strength threshold on the fine level; level ``k`` uses
        ``theta * 0.5**k`` (Vanek/Mandel/Brezina: Galerkin coarse operators
        couple more weakly, so a fixed threshold stalls coarsening).
    omega:
        Damping of the prolongator smoother and of the Jacobi smoother.
    coarse_size:
        A level this small is the coarsest (so is level
        :data:`MAX_LEVELS`).
    presmooth, postsmooth:
        Damped-Jacobi sweeps per side.
    """

    def __init__(
        self,
        a: sp.spmatrix,
        theta: float = 0.08,
        omega: float = 2.0 / 3.0,
        coarse_size: int = 64,
        presmooth: int = 1,
        postsmooth: int = 1,
    ) -> None:
        self.omega = float(omega)
        self.presmooth = int(presmooth)
        self.postsmooth = int(postsmooth)
        self.levels: List[AmgLevel] = []

        current = sp.csr_matrix(a, dtype=np.float64)
        for k in range(MAX_LEVELS + 1):
            n = current.shape[0]
            diag = current.diagonal()
            diag_inv = np.where(diag != 0.0, 1.0 / np.where(diag == 0, 1, diag), 0.0)
            agg = None
            if k < MAX_LEVELS and n > coarse_size:
                agg = _aggregate(_strength_graph(current, theta * 0.5**k))
            if agg is None or agg.max() + 1 >= n:  # coarsest, or aggregation stalled
                self.levels.append(AmgLevel(current, None, diag_inv))
                break
            tentative = sp.csr_matrix(
                (np.ones(n), (np.arange(n), agg)), shape=(n, int(agg.max()) + 1)
            )
            # Jacobi-smoothed prolongator: P = (I - w D^-1 A) T
            dinv_a = sp.diags(diag_inv) @ current
            prolongator = (
                tentative - self.omega * (dinv_a @ tentative)
            ).tocsr()
            restriction = prolongator.T.tocsr()
            self.levels.append(AmgLevel(current, prolongator, diag_inv, restriction))
            current = (restriction @ current @ prolongator).tocsr()

        # dense coarse pseudo-inverse handles the singular Neumann operator
        self._coarse_pinv = np.linalg.pinv(
            self.levels[-1].a.toarray(), rcond=1e-10
        )
        from .native import NativeCycle  # not at import: a cold ``import repro`` stays light

        self.native = NativeCycle(self)  #: the cycle, and CG's operator, in the form that serves

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def operator_complexity(self) -> float:
        """Total nonzeros over all levels / fine-level nonzeros."""
        fine = self.levels[0].a.nnz
        return sum(l.a.nnz for l in self.levels) / max(1, fine)

    # ------------------------------------------------------------------
    def _smooth(self, level: AmgLevel, x: np.ndarray, b: np.ndarray, sweeps: int) -> np.ndarray:
        for _ in range(sweeps):
            x = x + self.omega * level.diag_inv[:, None] * (b - level.a @ x)
        return x

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        """One V-cycle from level ``k`` down on an ``(n_k, S)`` block."""
        level = self.levels[k]
        if level.prolongator is None:
            # gemm is S-dependent; one gemv per contiguous column is not
            return scenario_rows(
                np.stack([self._coarse_pinv @ col for col in scenario_rows(b)])
            )
        if self.presmooth:
            # from a zero guess the first sweep's residual is ``b`` itself
            x = self._smooth(
                level, self.omega * level.diag_inv[:, None] * b, b, self.presmooth - 1
            )
            coarse = self._cycle(k + 1, level.restriction @ (b - level.a @ x))
            x += level.prolongator @ coarse
        else:
            x = level.prolongator @ self._cycle(k + 1, level.restriction @ b)
        return self._smooth(level, x, b, self.postsmooth)

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle applied to the residual equations ``A e = b``: a
        vector or an ``(n, S)`` block, each column on its own."""
        b = np.asarray(b, dtype=np.float64)
        return self.native.vcycle(b.reshape(b.shape[0], -1)).reshape(b.shape)

    # ------------------------------------------------------------------
    def as_preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """Return a V-cycle callable for :func:`~repro.solvers.cg.conjugate_gradient`."""
        return self.vcycle

    def solve(
        self,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        tol: float = 1e-8,
        maxiter: int = 100,
    ) -> SolveResult:
        """Stationary V-cycle iteration (no Krylov acceleration)."""
        a = self.levels[0].a
        b = np.asarray(b, dtype=np.float64)
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
        bnorm = float(np.linalg.norm(b)) or 1.0
        history = []
        for it in range(maxiter + 1):
            r = b - a @ x
            rnorm = float(np.linalg.norm(r))
            history.append(rnorm)
            if rnorm <= tol * bnorm:
                return SolveResult(x, it, rnorm, True, history)
            x = x + self.vcycle(r)
        return SolveResult(x, maxiter, history[-1], False, history)
