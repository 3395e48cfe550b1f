"""The reference linear tetrahedron.

The paper's *specialization* step fixes the element type to the linear
tetrahedron (``TET04``, Alya's name plus node count), for which the
shape-function gradients are constant over the element.  The baseline
assembly variant (``B``) still evaluates shape functions and parametric
derivatives at every Gauss point, with runtime node and Gauss counts; it
reads them from :data:`TET04`.

All arrays are laid out ``(node, point)`` for values and
``(node, dim, point)`` for derivatives so that a single element evaluated at
``ngauss`` points produces contiguous per-point panels.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Tuple

import numpy as np

__all__ = ["ReferenceElement", "TET04", "TET04_GRAD"]


@dataclasses.dataclass(frozen=True)
class ReferenceElement:
    """Immutable description of a reference (parent) element.

    Attributes
    ----------
    name:
        Alya-style identifier, e.g. ``"TET04"``.
    dim:
        Parametric dimension (3).
    nnode:
        Number of nodes / shape functions.
    node_coords:
        ``(nnode, dim)`` coordinates of the element nodes in parametric
        space.  Shape functions are nodal: ``N_a(x_b) = delta_ab``.
    shape:
        Callable mapping ``(npts, dim)`` parametric points to ``(nnode,
        npts)`` shape-function values.
    shape_grad:
        Callable mapping ``(npts, dim)`` parametric points to ``(nnode, dim,
        npts)`` parametric derivatives.
    linear_gradient:
        True when the shape-function gradients are constant over the element,
        as for the linear tetrahedron.  This is precisely the property
        the paper's specialization exploits: "the gradients of the shape
        functions are constant for tetrahedral elements".
    reference_volume:
        Volume of the reference element (used by sanity checks and
        quadrature-weight normalization tests).
    """

    name: str
    dim: int
    nnode: int
    node_coords: np.ndarray
    shape: Callable[[np.ndarray], np.ndarray]
    shape_grad: Callable[[np.ndarray], np.ndarray]
    linear_gradient: bool
    reference_volume: float

    def evaluate(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate shape functions and gradients at ``points``.

        Parameters
        ----------
        points:
            ``(npts, dim)`` array of parametric coordinates.

        Returns
        -------
        (values, gradients):
            ``(nnode, npts)`` and ``(nnode, dim, npts)`` arrays.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.dim:
            raise ValueError(
                f"{self.name}: expected points with dim {self.dim}, "
                f"got shape {pts.shape}"
            )
        return self.shape(pts), self.shape_grad(pts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReferenceElement({self.name}, nnode={self.nnode})"


_TET_NODES = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)


def _tet_shape(pts: np.ndarray) -> np.ndarray:
    s, t, u = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.stack([1.0 - s - t - u, s, t, u])


# Constant gradient matrix of the linear tet, (nnode, dim).
TET04_GRAD = np.array(
    [
        [-1.0, -1.0, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)


def _tet_shape_grad(pts: np.ndarray) -> np.ndarray:
    npts = pts.shape[0]
    return np.repeat(TET04_GRAD[:, :, None], npts, axis=2)


TET04 = ReferenceElement(
    name="TET04",
    dim=3,
    nnode=4,
    node_coords=_TET_NODES,
    shape=_tet_shape,
    shape_grad=_tet_shape_grad,
    linear_gradient=True,
    reference_volume=1.0 / 6.0,
)
