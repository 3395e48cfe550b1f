"""Element geometry of linear tetrahedra: Jacobians and Cartesian gradients.

:func:`tet4_gradients` exploits the linear tetrahedron's *constant*
Jacobian: one 3x3 solve per element, one gradient matrix shared by all
Gauss points -- the *specialized* path ("the gradients are the same at all
Gauss points, contrary to what happens for other elements").  It operates on
*element groups* (leading dimension = number of elements in the group), the
vectorized data layout the whole paper is about.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .reference import TET04_GRAD

__all__ = ["GeometryError", "tet4_gradients"]


class GeometryError(ValueError):
    """Raised for invalid (non-positive-Jacobian) element geometry."""


def tet4_gradients(xel: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Constant Cartesian gradients and Jacobian dets of linear tets.

    Parameters
    ----------
    xel:
        ``(nelem, 4, 3)`` element node coordinates.

    Returns
    -------
    (grads, dets):
        ``(nelem, 4, 3)`` gradients ``dN_a/dx_i`` and ``(nelem,)`` Jacobian
        determinants (``6 * volume``).

    Notes
    -----
    The Jacobian of the map from the reference tet is
    ``J_ij = sum_a x_a,i * dN_a/ds_j`` which for TET04 is the constant edge
    matrix ``[x1-x0, x2-x0, x3-x0]``.  Gradients follow from
    ``dN/dx = dN/ds @ J^{-1}``; we solve instead of inverting for accuracy.
    """
    xel = np.asarray(xel, dtype=np.float64)
    if xel.ndim != 3 or xel.shape[1:] != (4, 3):
        raise GeometryError(f"expected (nelem, 4, 3) coords, got {xel.shape}")
    jac = xel[:, 1:, :] - xel[:, :1, :]  # (nelem, 3, 3): rows are edges
    dets = np.linalg.det(jac)
    if not (dets > 0).all():
        nbad = int((dets <= 0).sum())
        raise GeometryError(
            f"{nbad} element(s) with non-positive Jacobian determinant"
        )
    # jac rows are d x_j / d s_i.  Chain rule gives, for each shape a,
    # jac @ dN_a/dx = dN_a/ds, so one 3x3 solve per (element, node).
    grads = np.linalg.solve(
        jac[:, None, :, :],
        np.broadcast_to(TET04_GRAD[None, :, :, None], (xel.shape[0], 4, 3, 1)),
    )[..., 0]
    return grads, dets
