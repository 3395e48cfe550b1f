"""Preconditioners for the CG pressure solver."""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["jacobi", "ssor", "ilu0"]


def jacobi(a: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Diagonal (Jacobi) preconditioner ``M^{-1} r = r / diag(A)``."""
    d = np.asarray(a.diagonal(), dtype=np.float64)
    if (d == 0).any():
        raise ValueError("Jacobi preconditioner: zero diagonal entry")
    inv = 1.0 / d

    def apply(r: np.ndarray) -> np.ndarray:  # a vector or an (n, S) block
        return (inv * r.T).T

    return apply


def ssor(a: sp.spmatrix, omega: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Symmetric SOR preconditioner.

    ``M = (D + wL) D^{-1} (D + wU) / (w (2 - w))``, applied as
    ``M^{-1} r = w (2 - w) (D + wU)^{-1} D (D + wL)^{-1} r`` via two
    triangular solves.  ``omega`` in (0, 2); symmetric for SPD ``A``.
    """
    if not 0.0 < omega < 2.0:
        raise ValueError("SSOR relaxation factor must be in (0, 2)")
    a = a.tocsr()
    d = np.asarray(a.diagonal(), dtype=np.float64)
    if (d == 0).any():
        raise ValueError("SSOR preconditioner: zero diagonal entry")
    dmat = sp.diags(d)
    lower_strict = sp.tril(a, k=-1)
    upper_strict = sp.triu(a, k=1)
    lw = (dmat + omega * lower_strict).tocsr()
    uw = (dmat + omega * upper_strict).tocsr()
    scale = omega * (2.0 - omega)

    def apply(r: np.ndarray) -> np.ndarray:
        y = spla.spsolve_triangular(lw, r, lower=True)
        y = (d * y.T).T
        return scale * spla.spsolve_triangular(uw, y, lower=False)

    return apply


def ilu0(a: sp.spmatrix, **kwargs) -> Callable[[np.ndarray], np.ndarray]:
    """Incomplete-LU preconditioner via scipy's ``spilu`` (fill-in 0-ish).

    Extra keyword arguments go to :func:`scipy.sparse.linalg.spilu`.
    """
    kwargs.setdefault("fill_factor", 10.0)
    kwargs.setdefault("drop_tol", 1e-5)
    ilu = spla.spilu(a.tocsc(), **kwargs)

    def apply(r: np.ndarray) -> np.ndarray:
        return ilu.solve(r)

    return apply
