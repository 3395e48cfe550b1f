"""Vectorized element packing (the ``VECTOR_DIM`` data layout).

Alya's assembly "loops over *groups* of elements" instead of single
elements: every per-element quantity gets an extra leading dimension of
length ``VECTOR_DIM`` so that CPU SIMD lanes / GPU threads each own one
element of the group.  The paper tunes ``VECTOR_DIM = 16`` on the CPU (a
small multiple of the AVX-512 width, keeping all temporaries L1/L2 resident)
and ``VECTOR_DIM = 2048k`` on the GPU (many waves of ~10^6 concurrent
threads).

This module turns a :class:`~repro.fem.mesh.TetMesh` into a sequence of
:class:`ElementGroup` packs with gathered node coordinates; the scatter of
their elemental RHS values into the global RHS lives in
:mod:`repro.fem.plan`.  The final group is padded with repeated dummy elements
(weight zero) so every group has exactly ``VECTOR_DIM`` lanes -- the same
trick Alya uses.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Tuple

import numpy as np

from .mesh import TetMesh

__all__ = ["ElementGroup", "ElementPacking"]


@dataclasses.dataclass(frozen=True)
class ElementGroup:
    """One ``VECTOR_DIM``-sized pack of elements.

    Attributes
    ----------
    index:
        Group ordinal within the packing.
    element_ids:
        ``(vector_dim,)`` global element ids (padding lanes repeat the last
        real element).
    connectivity:
        ``(vector_dim, 4)`` global node ids per lane.
    coords:
        ``(vector_dim, 4, 3)`` gathered node coordinates.
    active:
        ``(vector_dim,)`` bool mask; False on padding lanes.
    """

    index: int
    element_ids: np.ndarray
    connectivity: np.ndarray
    coords: np.ndarray
    active: np.ndarray

    @property
    def vector_dim(self) -> int:
        return self.element_ids.shape[0]

    @property
    def nactive(self) -> int:
        return int(self.active.sum())


class ElementPacking:
    """Partition of a mesh's elements into ``VECTOR_DIM`` groups.

    Parameters
    ----------
    mesh:
        The tetrahedral mesh.
    vector_dim:
        Lanes per group.  16 is the paper's CPU choice; the GPU path uses a
        very large value so a single "group" spans the whole kernel launch.
    """

    def __init__(
        self,
        mesh: TetMesh,
        vector_dim: int = 16,
        cache: bool = False,
    ) -> None:
        if vector_dim < 1:
            raise ValueError("vector_dim must be >= 1")
        self.mesh = mesh
        self.vector_dim = int(vector_dim)
        # One shared all-true mask serves every full group; the padded
        # final group (if any) is always memoized -- rebuilding it per
        # assemble was pure waste.  With ``cache=True`` every group's
        # gathered connectivity/coords are kept for the mesh's lifetime.
        self._active_full = np.ones(self.vector_dim, dtype=bool)
        self._active_full.flags.writeable = False
        self._final_group: ElementGroup | None = None
        self._cache: dict[int, ElementGroup] | None = {} if cache else None

    @property
    def ngroups(self) -> int:
        """Number of groups (last one possibly padded)."""
        return -(-self.mesh.nelem // self.vector_dim)

    def group(self, index: int) -> ElementGroup:
        """Build (or fetch the memoized) ``index``-th element group."""
        if not 0 <= index < self.ngroups:
            raise IndexError(
                f"group index {index} out of range [0, {self.ngroups})"
            )
        if self._cache is not None:
            cached = self._cache.get(index)
            if cached is not None:
                return cached
        start = index * self.vector_dim
        stop = min(start + self.vector_dim, self.mesh.nelem)
        if stop - start < self.vector_dim:
            if self._final_group is not None:
                return self._final_group
            active = np.arange(start, start + self.vector_dim) < stop
            active.flags.writeable = False
        else:
            active = self._active_full
        # natural order; padding lanes repeat the last element
        ids = np.minimum(np.arange(start, start + self.vector_dim, dtype=np.int64), stop - 1)
        conn = self.mesh.connectivity[ids]
        group = ElementGroup(
            index=index,
            element_ids=ids,
            connectivity=conn,
            coords=self.mesh.coords[conn],
            active=active,
        )
        if stop - start < self.vector_dim:
            self._final_group = group
        if self._cache is not None:
            self._cache[index] = group
        return group

    def __iter__(self) -> Iterator[ElementGroup]:
        for i in range(self.ngroups):
            yield self.group(i)

    def __len__(self) -> int:
        return self.ngroups

    def lane_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(element_ids, active)`` of all ``ngroups * vector_dim`` lanes
        at once: the concatenation of every group's ``element_ids`` and
        ``active`` (padding lanes repeat the last element, inactive)
        without building the groups."""
        nelem = self.mesh.nelem
        lanes = np.arange(self.ngroups * self.vector_dim, dtype=np.int64)
        return np.minimum(lanes, nelem - 1), lanes < nelem

