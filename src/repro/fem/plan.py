"""Mesh-lifetime assembly plans: precomputed scatter, cached packing/geometry.

The paper's R/RSPR transformations are about shrinking intermediate
lifetime and scattering elemental RHS entries straight into the global
RHS.  The Python substrate pays the opposite cost when left naive: every
assembly re-gathers coordinates, re-derives the (time-invariant) P1
geometry and reduces through ``np.add.at`` -- one of numpy's slowest
primitives.  This module hoists all of that mesh-lifetime setup out of
the hot loop:

* :class:`ScatterPlan` -- a precomputed reduction plan over a fixed index
  pattern (the raveled connectivity): a ``bincount`` reduction,
  **bit-identical** to ``np.add.at`` into a zero array (both accumulate
  sequentially in input order) while running an order of magnitude
  faster.
* :class:`GeometryCache` -- Jacobians, Cartesian shape gradients and
  volumes of the P1 mesh, computed once and shared by the momentum
  assembly and the pressure path.
* :class:`P1Derivatives` -- sparse divergence/gradient operators built
  from that geometry on first use; the pressure Laplacian, divergence
  RHS, projection gradient and divergence diagnostic all apply them.
* :class:`ScatterAccumulator` -- the deferred scatter used by the DSL
  execution backend: every ``scatter_add_rhs`` call appends its lane
  values to a buffer whose *index pattern* is computed once per
  (mesh, vector_dim, variant) and cached; the final reduction is a
  single ``bincount`` in the exact temporal order the per-call
  ``np.add.at`` path would have used -- hence bit-identical results.
* :class:`AssemblyPlan` / :func:`get_plan` -- the per-mesh cache tying
  it together (owned by the mesh, which never changes after construction).

Telemetry flows through :mod:`repro.obs`: plan construction records a
``plan.build`` span, and the ``plan.*`` / ``scatter.*`` counters track
cache hits and reduced value counts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from .geometry import tet4_gradients
from .mesh import TetMesh
from .packing import ElementGroup, ElementPacking

__all__ = [
    "segment_scatter",
    "flush_pattern",
    "ScatterPlan",
    "GeometryCache",
    "P1Derivatives",
    "ScatterAccumulator",
    "AssemblyPlan",
    "get_plan",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def segment_scatter(
    indices: np.ndarray, values: np.ndarray, nbins: int
) -> np.ndarray:
    """Sum ``values`` into ``nbins`` bins, bit-identical to ``np.add.at``.

    ``np.bincount`` accumulates weights sequentially in input order --
    exactly the unbuffered semantics of ``np.add.at`` on a zero target --
    so for any duplicate pattern the result matches the naive scatter to
    the last bit, at a fraction of the cost.

    Parameters
    ----------
    indices:
        ``(n,)`` non-negative bin ids.
    values:
        ``(n,)`` or ``(n, ncomp)`` contributions.
    nbins:
        Size of the output's leading dimension.
    """
    indices = np.asarray(indices)
    values = np.asarray(values, dtype=np.float64)
    registry = get_registry()
    registry.counter("scatter.bincount_calls").inc()
    registry.counter("scatter.values_reduced").inc(values.size)
    if values.ndim == 1:
        return np.bincount(indices, weights=values, minlength=nbins)[:nbins]
    out = np.empty((nbins, values.shape[1]), dtype=np.float64)
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(
            indices, weights=values[:, c], minlength=nbins
        )[:nbins]
    return out


class ScatterPlan:
    """Precomputed reduction plan for a fixed scatter-index pattern.

    Parameters
    ----------
    indices:
        ``(n,)`` target bin of each contribution (e.g. the raveled element
        connectivity).  Copied and frozen.
    nbins:
        Number of output bins (e.g. ``nnode``).
    """

    def __init__(self, indices: np.ndarray, nbins: int) -> None:
        self.indices = _readonly(
            np.ascontiguousarray(indices, dtype=np.int64).copy()
        )
        if self.indices.size and self.indices.min() < 0:
            raise ValueError("scatter indices must be non-negative")
        self.nbins = int(nbins)

    @property
    def nvalues(self) -> int:
        return self.indices.shape[0]

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Reduce ``values`` (aligned with ``indices``) into the bins,
        bit-identical to the ``np.add.at`` reduction the seed code used."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.nvalues:
            raise ValueError(
                f"values leading dim {values.shape[0]} != plan size "
                f"{self.nvalues}"
            )
        return segment_scatter(self.indices, values, self.nbins)


@dataclasses.dataclass(frozen=True)
class GeometryCache:
    """Time-invariant P1 geometry of a whole mesh.

    Attributes
    ----------
    gradients:
        ``(nelem, 4, 3)`` constant Cartesian shape gradients.
    dets:
        ``(nelem,)`` Jacobian determinants (``6 * volume``).
    volumes:
        ``(nelem,)`` element volumes (``dets / 6``).
    """

    gradients: np.ndarray
    dets: np.ndarray
    volumes: np.ndarray


@dataclasses.dataclass(frozen=True)
class P1Derivatives:
    """Sparse P1 derivative operators, one CSR matrix per axis ``i``.

    Attributes
    ----------
    elemental:
        ``De_i`` (``nelem x nnode``): ``(De_i f)_e = d_i f``, constant on
        element ``e``.
    nodal:
        ``Dn_i = S^T diag(V/4) De_i`` (``nnode x nnode``, ``S`` the
        element->node incidence): ``(Dn_i f)_a = int N_a d_i f dV`` --
        the divergence RHS is ``sum_i Dn_i u_i`` and the lumped nodal
        gradient ``Dn_i p / m``.  Stored on the structural pattern of
        ``S^T De``, exact zeros included, so the three share one.
    """

    elemental: Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]
    nodal: Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]


@dataclasses.dataclass(frozen=True)
class _ScatterPattern:
    """Cached index pattern of one full DSL assembly sweep."""

    indices: np.ndarray  # (total,) flattened (node*ncomp + comp) + trash bin
    signature: Tuple[int, tuple]  # see compact_signature
    length: int


def compact_signature(calls: list) -> Tuple[int, tuple]:
    """``(ngroups, per-group (slot, comp) calls)`` of a sweep's
    call-by-call ``(group, slot, comp)`` list -- what a mesh-bound kernel
    writes down directly from its program.  A list that is not the same
    calls for groups ``0 .. ngroups - 1`` in order keeps its full form,
    which equals no regular sweep's."""
    ngroups = calls[-1][0] + 1 if calls else 0
    per_group = tuple(
        (slot, comp) for _, slot, comp in calls[: len(calls) // max(ngroups, 1)]
    )
    if calls != [(g, s, c) for g in range(ngroups) for s, c in per_group]:
        per_group = tuple(calls)
    return ngroups, per_group


def flush_pattern(
    pattern: _ScatterPattern,
    values: np.ndarray,
    rhs: np.ndarray,
    nnode: int,
    ncomp: int = 3,
) -> None:
    """Reduce one sweep's buffered scatter ``values`` into ``rhs``.

    The single shared flush of the deferred-scatter paths (the interpreted
    :class:`ScatterAccumulator`, and the bound kernels once per scenario
    row): one ``bincount`` over the precomputed index pattern, sequential
    in buffer order -- bit-identical to per-call ``np.add.at`` on a zero
    target.
    The trash bin (one slot past the real ``nnode * ncomp`` bins) absorbs
    padding-lane contributions.
    """
    registry = get_registry()
    registry.counter("scatter.bincount_calls").inc()
    registry.counter("scatter.values_reduced").inc(values.size)
    trash = int(nnode) * int(ncomp)
    out = np.bincount(pattern.indices, weights=values, minlength=trash + 1)
    rhs += out[:trash].reshape(nnode, ncomp)


class ScatterAccumulator:
    """Deferred global-RHS scatter for the DSL execution backend.

    The seed path issued one ``np.add.at`` per (node slot, component) per
    element group -- ``12 * ngroups`` unbuffered scatters per assembly.
    The accumulator instead buffers every call's lane values in temporal
    order and reduces **once** with a single ``bincount`` over the
    flattened ``(node, component)`` bins.  Because ``bincount`` sums
    sequentially in buffer order -- the same order the per-call
    ``np.add.at`` would have applied -- the result is bit-identical.

    Padding lanes are routed to a trash bin (one extra slot past the real
    bins) so no runtime masking is needed.  The index pattern of a full
    sweep depends only on (mesh, packing, kernel call order), so it is
    built during the first assembly and cached on the owning
    :class:`AssemblyPlan` for every later timestep.
    """

    def __init__(
        self,
        plan: "AssemblyPlan",
        key: Tuple,
        nnode: int,
        ncomp: int = 3,
    ) -> None:
        self._plan = plan
        self._key = key
        self._nnode = int(nnode)
        self._ncomp = int(ncomp)
        self._trash = self._nnode * self._ncomp
        self._group: Optional[ElementGroup] = None
        self._signature: list = []
        self._pattern: Optional[_ScatterPattern] = plan._patterns.get(key)
        if self._pattern is None:
            self._idx_chunks: list = []
            self._val_chunks: list = []
        else:
            from ..core.arena import aligned_empty

            self._values = aligned_empty(self._pattern.length)
        self._pos = 0

    def begin_group(self, group: ElementGroup) -> None:
        """Declare the element group subsequent :meth:`add` calls belong to."""
        self._group = group

    def add(self, node_slot: int, component: int, payload) -> None:
        """Record one lane-wide scatter call (values in lane order)."""
        group = self._group
        if group is None:
            raise RuntimeError("ScatterAccumulator.add before begin_group")
        vals = np.broadcast_to(payload, (group.vector_dim,))
        self._signature.append((group.index, node_slot, component))
        if self._pattern is None:
            idx = group.connectivity[:, node_slot] * self._ncomp + component
            if group.nactive != group.vector_dim:
                idx = np.where(group.active, idx, self._trash)
            self._idx_chunks.append(np.ascontiguousarray(idx, dtype=np.int64))
            self._val_chunks.append(np.array(vals, dtype=np.float64))
            self._pos += vals.shape[0]
        else:
            n = vals.shape[0]
            if self._pos + n > self._pattern.length:
                raise RuntimeError(
                    "scatter pattern mismatch: kernel issued more scatter "
                    "values than the cached plan"
                )
            self._values[self._pos:self._pos + n] = vals
            self._pos += n

    def finalize(self, rhs: np.ndarray) -> None:
        """Reduce the buffered contributions into ``rhs`` (``(nnode, ncomp)``)."""
        registry = get_registry()
        if self._pattern is None:
            if self._idx_chunks:
                indices = np.concatenate(self._idx_chunks)
                values = np.concatenate(self._val_chunks)
            else:
                indices = np.zeros(0, dtype=np.int64)
                values = np.zeros(0, dtype=np.float64)
            pattern = _ScatterPattern(
                indices=_readonly(indices),
                signature=compact_signature(self._signature),
                length=int(indices.shape[0]),
            )
            self._plan._patterns[self._key] = pattern
            registry.counter("scatter.pattern_builds").inc()
        else:
            pattern = self._pattern
            if self._pos != pattern.length or (
                compact_signature(self._signature) != pattern.signature
            ):
                raise RuntimeError(
                    "scatter pattern mismatch: kernel call order changed "
                    "between assemblies of the same plan key"
                )
            values = self._values
            registry.counter("scatter.pattern_reuses").inc()
        flush_pattern(pattern, values, rhs, self._nnode, self._ncomp)


class AssemblyPlan:
    """Everything about a mesh the assembly can precompute once.

    Instances are created through :func:`get_plan`, which caches one plan
    on each live mesh.
    """

    def __init__(self, mesh: TetMesh) -> None:
        with get_tracer().span(
            "plan.build", nnode=int(mesh.nnode), nelem=int(mesh.nelem)
        ):
            self.mesh = mesh
            #: mesh-level scatter plan over the raveled connectivity
            self.scatter = ScatterPlan(mesh.connectivity.ravel(), mesh.nnode)
        self._geometry: Optional[GeometryCache] = None
        self._element_volumes: Optional[np.ndarray] = None
        self._lumped_mass: Optional[np.ndarray] = None
        self._packed_coords: Optional[np.ndarray] = None
        self._p1_derivatives: Optional[P1Derivatives] = None
        self._operators: Dict[str, object] = {}
        self._packings: Dict[int, ElementPacking] = {}
        self._patterns: Dict[Tuple, _ScatterPattern] = {}
        #: bound kernels by configuration key: compiled tapes, generated kernels
        self.kernels: Dict[str, Dict[Tuple, object]] = {"tape": {}, "codegen": {}}
        get_registry().counter("plan.builds").inc()

    # -- cached geometry -------------------------------------------------
    def geometry(self) -> GeometryCache:
        """Cached P1 gradients / Jacobian dets / volumes of the mesh."""
        if self._geometry is None:
            with get_tracer().span("plan.geometry", nelem=int(self.mesh.nelem)):
                grads, dets = tet4_gradients(self.packed_coords())
                self._geometry = GeometryCache(
                    gradients=_readonly(grads),
                    dets=_readonly(dets),
                    volumes=_readonly(dets / 6.0),
                )
            get_registry().counter("plan.geometry_builds").inc()
        return self._geometry

    def element_volumes(self) -> np.ndarray:
        """Cached signed element volumes.

        Same triple-product formula as
        :meth:`~repro.fem.mesh.TetMesh.element_volumes` (which differs
        from :attr:`GeometryCache.volumes` -- the determinant route -- in
        the last ulp), so callers that historically used the mesh helper
        keep bit-identical values.
        """
        if self._element_volumes is None:
            self._element_volumes = _readonly(self.mesh.element_volumes())
        return self._element_volumes

    def lumped_mass(self) -> np.ndarray:
        """Cached lumped-mass diagonal: each node gets a quarter of the
        volume of each adjacent element, bit-identical to the ``np.add.at``
        reduction of those quarters."""
        if self._lumped_mass is None:
            vols = self.element_volumes()
            self._lumped_mass = _readonly(
                self.scatter.scatter(np.repeat(vols / 4.0, 4))
            )
        return self._lumped_mass

    def p1_derivatives(self) -> P1Derivatives:
        """Cached :class:`P1Derivatives`, built on first use (only time
        stepping needs them): the elemental CSRs are written straight from
        the connectivity (four entries per row, no sort), the nodal ones are
        sparse products; each triple shares one index pattern, arrays
        included."""
        if self._p1_derivatives is None:
            geo, conn = self.geometry(), self.mesh.connectivity
            shape = (len(conn), self.mesh.nnode)
            pattern = sp.csr_matrix(
                (np.ones(conn.size), conn.ravel(), np.arange(0, conn.size + 1, 4)), shape=shape
            )

            def rows(data: np.ndarray) -> sp.csr_matrix:
                return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=shape)

            def keys(m: sp.csr_matrix) -> np.ndarray:  # row * ncol + col of each entry
                return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)) * m.shape[1] + m.indices

            elemental = tuple(rows(geo.gradients[:, :, i].ravel()) for i in range(3))
            lump_t = rows(np.repeat(geo.volumes / 4.0, 4)).T.tocsr()  # S^T diag(V/4)
            # scipy's product drops exact zeros, so each Dn_i goes back on the product's
            # structural pattern (of ones: nothing cancels), in the product's own order: a
            # zero term leaves a finite row sum's bits as they were
            full = lump_t @ pattern
            where = np.argsort(full_keys := keys(full))
            nodal = []
            for dn in (lump_t @ de for de in elemental):
                data = np.zeros(full.nnz)
                data[where[np.searchsorted(full_keys, keys(dn), sorter=where)]] = dn.data
                nodal.append(sp.csr_matrix((data, full.indices, full.indptr), shape=full.shape))
            self._p1_derivatives = P1Derivatives(elemental, tuple(nodal))
        return self._p1_derivatives

    def packed_coords(self) -> np.ndarray:
        """Cached ``(nelem, 4, 3)`` gathered element node coordinates."""
        if self._packed_coords is None:
            self._packed_coords = _readonly(self.mesh.element_coords())
        return self._packed_coords

    # -- cached packing ----------------------------------------------------
    def packing(self, vector_dim: int) -> ElementPacking:
        """Cached, group-memoizing :class:`ElementPacking` for this mesh."""
        key = int(vector_dim)
        packing = self._packings.get(key)
        if packing is None:
            packing = ElementPacking(self.mesh, vector_dim=key, cache=True)
            self._packings[key] = packing
            get_registry().counter("plan.packing_builds").inc()
        return packing

    # -- scatter patterns ---------------------------------------------------
    def scatter_pattern(self, key: Tuple) -> Optional[_ScatterPattern]:
        """Cached scatter index pattern for a sweep key, or ``None``."""
        return self._patterns.get(key)

    def store_scatter_pattern(
        self,
        key: Tuple,
        indices: np.ndarray,
        signature: Tuple[int, tuple],
    ) -> _ScatterPattern:
        """Register a sweep's scatter index pattern and return it.

        Used by the compiled tape executor, which builds the pattern
        vectorized instead of call-by-call; the stored pattern is the same
        object the interpreted :class:`ScatterAccumulator` would have
        built (same key, same signature, same flattened index order), so
        interpreted and compiled sweeps of one configuration share it.
        """
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        pattern = _ScatterPattern(
            indices=_readonly(indices),
            signature=signature,
            length=int(indices.shape[0]),
        )
        self._patterns[key] = pattern
        return pattern

    # -- solver operators ---------------------------------------------------
    def cached_operator(self, key: str):
        """Cached solver operator for ``key``, or ``None``.

        :class:`~repro.physics.pressure.PressureSolver` keeps the pressure
        Laplacian and its default AMG hierarchy here, so every solver on
        this mesh shares them.
        """
        return self._operators.get(key)

    def store_operator(self, key: str, operator) -> None:
        self._operators[key] = operator

    # -- deferred DSL scatter ---------------------------------------------
    def accumulator(self, key: Tuple, ncomp: int = 3) -> ScatterAccumulator:
        """New deferred-scatter accumulator for one assembly sweep.

        ``key`` identifies the sweep's index pattern (variant name,
        vector_dim); the pattern is cached after the first
        sweep with that key.
        """
        return ScatterAccumulator(self, key, self.mesh.nnode, ncomp=ncomp)


# -- per-mesh plan cache ------------------------------------------------------


def get_plan(mesh: TetMesh) -> AssemblyPlan:
    """The (cached) :class:`AssemblyPlan` of ``mesh``.

    The plan is stored *on* the mesh (``mesh._plan``); the mesh's arrays
    are read-only, so the plan stays valid for the mesh's lifetime.  The
    plan refers back to its mesh, so any table keyed on the mesh -- even a
    weak one -- would keep every mesh it ever saw alive through its own
    value; owned by the mesh, plan and mesh are one garbage cycle that goes
    away when the mesh is dropped.
    """
    if mesh._plan is not None:
        get_registry().counter("plan.cache_hits").inc()
        return mesh._plan
    mesh._plan = AssemblyPlan(mesh)
    return mesh._plan
