"""Unstructured tetrahedral mesh container.

The test case in the paper is a tetrahedral mesh of the Bolund cliff with
5.6M nodes and 32M elements.  This module holds the in-memory representation
used by every other subsystem: node coordinates, element connectivity,
boundary topology and validation/statistics helpers.  A mesh never changes
after construction: its arrays are read-only.

The mesh is deliberately *flat* (structure-of-arrays): ``coords`` is
``(nnode, 3)`` float64 and ``connectivity`` is ``(nelem, 4)`` int32/int64,
matching both Alya's layout and what the vectorized element packing in
:mod:`repro.fem.packing` consumes.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

__all__ = ["TetMesh", "MeshStatistics", "MeshValidationError"]

# The four faces of a tetrahedron, as local node triples with outward
# orientation for a positively-oriented element.
TET_FACES = np.array(
    [
        [0, 2, 1],
        [0, 1, 3],
        [1, 2, 3],
        [0, 3, 2],
    ],
    dtype=np.int64,
)

TET_EDGES = np.array(
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64
)


class MeshValidationError(ValueError):
    """Raised when a mesh fails a structural validity check."""


@dataclasses.dataclass(frozen=True)
class MeshStatistics:
    """Summary statistics of a :class:`TetMesh`."""

    nnode: int
    nelem: int
    volume: float
    min_element_volume: float
    max_element_volume: float
    min_quality: float
    mean_quality: float
    bounding_box: Tuple[np.ndarray, np.ndarray]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.bounding_box
        return (
            f"TetMesh: {self.nnode} nodes, {self.nelem} elements, "
            f"volume {self.volume:.6g}, element volume "
            f"[{self.min_element_volume:.3g}, {self.max_element_volume:.3g}], "
            f"quality min/mean {self.min_quality:.3f}/{self.mean_quality:.3f}, "
            f"bbox {lo} -- {hi}"
        )


class TetMesh:
    """An unstructured mesh of linear tetrahedra.

    Parameters
    ----------
    coords:
        ``(nnode, 3)`` node coordinates.
    connectivity:
        ``(nelem, 4)`` node indices per element.  Elements must be
        positively oriented (positive Jacobian determinant).
    validate:
        When true (default) run structural checks on construction.
    """

    def __init__(
        self,
        coords: np.ndarray,
        connectivity: np.ndarray,
        validate: bool = True,
    ) -> None:
        # Private copies, frozen: every mesh-lifetime cache
        # (AssemblyPlan scatter patterns, compiled tapes, packed groups)
        # is built from the mesh arrays once, so a write would silently
        # replay stale patterns.
        self._coords = np.array(coords, dtype=np.float64, order="C")
        self._connectivity = np.array(connectivity, dtype=np.int64, order="C")
        self._coords.flags.writeable = False
        self._connectivity.flags.writeable = False
        if self._coords.ndim != 2 or self._coords.shape[1] != 3:
            raise MeshValidationError(
                f"coords must be (nnode, 3), got {self._coords.shape}"
            )
        if self._connectivity.ndim != 2 or self._connectivity.shape[1] != 4:
            raise MeshValidationError(
                f"connectivity must be (nelem, 4), got "
                f"{self._connectivity.shape}"
            )
        #: the :class:`~repro.fem.plan.AssemblyPlan` owned by
        #: :func:`repro.fem.plan.get_plan`
        self._plan = None
        if validate:
            self.validate()

    def __getstate__(self):
        # the plan is a cache of compiled tapes and exec'd kernels, not
        # mesh state: pickles and deep copies start without one
        return {**self.__dict__, "_plan": None}

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """``(nnode, 3)`` node coordinates (read-only)."""
        return self._coords

    @property
    def connectivity(self) -> np.ndarray:
        """``(nelem, 4)`` element node ids (read-only)."""
        return self._connectivity

    @property
    def nnode(self) -> int:
        """Number of nodes."""
        return self._coords.shape[0]

    @property
    def nelem(self) -> int:
        """Number of tetrahedral elements."""
        return self._connectivity.shape[0]

    def element_coords(self, elems: np.ndarray | slice | None = None) -> np.ndarray:
        """Gather node coordinates per element: ``(nelem_sel, 4, 3)``."""
        conn = self.connectivity if elems is None else self.connectivity[elems]
        return self.coords[conn]

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def element_volumes(self) -> np.ndarray:
        """Signed volumes of all elements, ``(nelem,)``.

        Positive for correctly oriented tetrahedra.
        """
        x = self.element_coords()
        d1 = x[:, 1] - x[:, 0]
        d2 = x[:, 2] - x[:, 0]
        d3 = x[:, 3] - x[:, 0]
        return np.einsum("ei,ei->e", np.cross(d1, d2), d3) / 6.0

    def total_volume(self) -> float:
        """Total mesh volume (sum of signed element volumes)."""
        return float(self.element_volumes().sum())

    def element_quality(self) -> np.ndarray:
        """Radius-ratio-like quality in (0, 1]; 1 is the regular tet.

        Uses the normalized volume/rms-edge measure
        ``q = 6*sqrt(2) V / l_rms^3`` which is 1 for the regular
        tetrahedron and approaches 0 for slivers.
        """
        x = self.element_coords()
        vol = np.abs(self.element_volumes())
        edges = x[:, TET_EDGES[:, 1]] - x[:, TET_EDGES[:, 0]]
        l2 = np.einsum("eij,eij->ei", edges, edges)
        lrms = np.sqrt(l2.mean(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 6.0 * np.sqrt(2.0) * vol / lrms**3
        return np.nan_to_num(q, nan=0.0)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def boundary_faces(self) -> np.ndarray:
        """Faces appearing in exactly one element: ``(nbfaces, 3)`` node ids.

        Faces are returned with the original (outward) orientation.
        """
        conn = self.connectivity
        faces = conn[:, TET_FACES].reshape(-1, 3)  # (nelem*4, 3)
        key = np.sort(faces, axis=1)
        # Lexicographic unique with counts.
        order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
        skey = key[order]
        new = np.ones(len(skey), dtype=bool)
        new[1:] = (skey[1:] != skey[:-1]).any(axis=1)
        group_ids = np.cumsum(new) - 1
        counts = np.bincount(group_ids)
        singleton_groups = np.flatnonzero(counts == 1)
        first_of_group = np.flatnonzero(new)
        boundary_rows = order[first_of_group[singleton_groups]]
        return faces[boundary_rows]

    def boundary_nodes(self) -> np.ndarray:
        """Sorted unique node ids lying on the boundary."""
        return np.unique(self.boundary_faces())

    # ------------------------------------------------------------------
    # Validation and statistics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Run structural checks; raise :class:`MeshValidationError` on failure."""
        conn = self.connectivity
        if conn.size:
            if conn.min() < 0 or conn.max() >= self.nnode:
                raise MeshValidationError(
                    "connectivity references node ids outside [0, nnode)"
                )
            # No repeated node within an element.
            s = np.sort(conn, axis=1)
            if (s[:, 1:] == s[:, :-1]).any():
                raise MeshValidationError(
                    "degenerate element: repeated node within an element"
                )
        if not np.isfinite(self.coords).all():
            raise MeshValidationError("non-finite node coordinates")

    def statistics(self) -> MeshStatistics:
        """Compute summary statistics."""
        vols = self.element_volumes()
        q = self.element_quality()
        return MeshStatistics(
            nnode=self.nnode,
            nelem=self.nelem,
            volume=float(vols.sum()),
            min_element_volume=float(vols.min()) if vols.size else 0.0,
            max_element_volume=float(vols.max()) if vols.size else 0.0,
            min_quality=float(q.min()) if q.size else 0.0,
            mean_quality=float(q.mean()) if q.size else 0.0,
            bounding_box=(self.coords.min(axis=0), self.coords.max(axis=0)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TetMesh(nnode={self.nnode}, nelem={self.nelem})"
