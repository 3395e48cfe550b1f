"""Mesh partitioning for MPI-style domain decomposition.

Three partitioners:

* :func:`rcb_partition` -- recursive coordinate bisection on element
  centroids: geometric, deterministic, well-balanced for any part count.
* :func:`greedy_graph_partition` -- BFS graph growing over the element
  adjacency, which produces more compact interfaces on unstructured
  meshes.
* :func:`sfc_partition` -- contiguous blocks along a space-filling curve
  (:mod:`repro.fem.reorder`): near-perfect balance by construction, and
  each part is a spatially compact curve segment.

All return an element->part label array; :func:`partition_quality` reports
balance and edge-cut metrics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..fem.mesh import TetMesh

__all__ = [
    "rcb_partition",
    "greedy_graph_partition",
    "sfc_partition",
    "partition_quality",
    "element_adjacency",
]


def sfc_partition(
    mesh: TetMesh, nparts: int, strategy: str = "hilbert"
) -> np.ndarray:
    """Partition into contiguous blocks of the SFC element order.

    Elements are sorted along the named space-filling curve
    (``"hilbert"`` or ``"morton"``) and split into ``nparts`` equal-size
    consecutive runs.  Part sizes differ by at most one element, and each
    part inherits the curve's spatial locality -- compact subdomains with
    short interfaces, at the cost of no explicit edge-cut optimization.
    """
    from ..fem.reorder import element_order

    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    order = element_order(mesh, strategy)
    bounds = np.linspace(0, mesh.nelem, nparts + 1).astype(np.int64)
    labels = np.empty(mesh.nelem, dtype=np.int64)
    for part in range(nparts):
        labels[order[bounds[part] : bounds[part + 1]]] = part
    return labels


def rcb_partition(mesh: TetMesh, nparts: int) -> np.ndarray:
    """Recursive coordinate bisection on element centroids."""
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    centroids = mesh.element_coords().mean(axis=1)
    labels = np.zeros(mesh.nelem, dtype=np.int64)

    def bisect(ids: np.ndarray, parts: int, base: int) -> None:
        if parts == 1 or len(ids) == 0:
            labels[ids] = base
            return
        left_parts = parts // 2
        right_parts = parts - left_parts
        pts = centroids[ids]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        split = int(round(len(ids) * left_parts / parts))
        bisect(ids[order[:split]], left_parts, base)
        bisect(ids[order[split:]], right_parts, base + left_parts)

    bisect(np.arange(mesh.nelem, dtype=np.int64), nparts, 0)
    return labels


def element_adjacency(mesh: TetMesh) -> Tuple[np.ndarray, np.ndarray]:
    """CSR element-to-element adjacency via shared faces."""
    from ..fem.mesh import TET_FACES

    conn = mesh.connectivity
    faces = np.sort(conn[:, TET_FACES].reshape(-1, 3), axis=1)
    owners = np.repeat(np.arange(mesh.nelem, dtype=np.int64), 4)
    order = np.lexsort((faces[:, 2], faces[:, 1], faces[:, 0]))
    sf = faces[order]
    so = owners[order]
    same = (sf[1:] == sf[:-1]).all(axis=1)
    a = so[:-1][same]
    b = so[1:][same]
    both = np.concatenate([np.stack([a, b], 1), np.stack([b, a], 1)])
    order2 = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order2]
    counts = np.bincount(both[:, 0], minlength=mesh.nelem)
    offsets = np.zeros(mesh.nelem + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, both[:, 1].copy()


def greedy_graph_partition(
    mesh: TetMesh, nparts: int, seed: Optional[int] = None
) -> np.ndarray:
    """BFS graph-growing partition over the element adjacency."""
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    offsets, adj = element_adjacency(mesh)
    n = mesh.nelem
    target = n / nparts
    labels = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    unassigned_ptr = 0
    for part in range(nparts):
        remaining = (
            int(round(target * (part + 1))) - int((labels != -1).sum())
        )
        if remaining <= 0:
            continue
        while unassigned_ptr < n and labels[unassigned_ptr] != -1:
            unassigned_ptr += 1
        if unassigned_ptr >= n:
            break
        frontier = [unassigned_ptr]
        labels[unassigned_ptr] = part
        count = 1
        while frontier and count < remaining:
            nxt = []
            for e in frontier:
                for nb in adj[offsets[e] : offsets[e + 1]]:
                    if labels[nb] == -1 and count < remaining:
                        labels[nb] = part
                        count += 1
                        nxt.append(int(nb))
            if not nxt:
                # grow from any unassigned element (disconnected pocket)
                pool = np.flatnonzero(labels == -1)
                if len(pool) == 0 or count >= remaining:
                    break
                pick = int(pool[0]) if seed is None else int(rng.choice(pool))
                labels[pick] = part
                count += 1
                nxt = [pick]
            frontier = nxt
    labels[labels == -1] = nparts - 1
    return labels


def partition_quality(mesh: TetMesh, labels: np.ndarray) -> Dict[str, float]:
    """Balance and interface metrics of an element partition."""
    labels = np.asarray(labels)
    if labels.shape != (mesh.nelem,):
        raise ValueError("labels must be one per element")
    nparts = int(labels.max()) + 1 if labels.size else 0
    counts = np.bincount(labels, minlength=nparts)
    offsets, adj = element_adjacency(mesh)
    src = np.repeat(np.arange(mesh.nelem), np.diff(offsets))
    cut = int((labels[src] != labels[adj]).sum()) // 2
    shared = 0
    node_parts: Dict[int, set] = {}
    for part in range(nparts):
        nodes = np.unique(mesh.connectivity[labels == part])
        for nd in nodes:
            node_parts.setdefault(int(nd), set()).add(part)
    shared = sum(1 for s in node_parts.values() if len(s) > 1)
    return {
        "nparts": float(nparts),
        "imbalance": float(counts.max() / max(1.0, counts.mean()))
        if nparts
        else 0.0,
        "edge_cut": float(cut),
        "interface_nodes": float(shared),
    }
