"""The machine-independent stages of both execution models.

The paper derives Tables I and II by one method on two machines (LIKWID
on Icelake, Nsight Compute on the A100): decide where every temporary
lives, then count the traffic that survives.  This module is the half of
that method that does not depend on the machine -- the paper's constants,
the first placement, register forwarding, the replay's address layout,
cache effectiveness and the cold-mesh correction -- so
:mod:`repro.machine.gpu` and :mod:`repro.machine.cpu` keep only their
register rules, the cache hierarchies they replay through, and timing.

Cold-mesh correction
--------------------

The cache simulators replay a few thousand elements, so the mesh fields
(coordinates, velocity, RHS, connectivity) fit in the simulated caches --
but the paper's mesh has 5.6M nodes and 32M elements: per assembly sweep
every node line must stream from DRAM at least once, and imperfect element
ordering multiplies that compulsory traffic.  Both models add this
analytic correction to their simulated DRAM (and last-level) volumes.

Per element, using the Bolund mesh's node/element ratio (5.6M / 32M =
0.175):

* connectivity: 4 node indices x 8 B = 32 B;
* nodal loads: (coordinates 24 B + velocity 24 B) x ratio x locality;
* RHS update: 24 B write-allocate + 24 B writeback x ratio x locality;

with ``locality`` > 1 accounting for nodes whose cached copy is evicted
between the element groups that share them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.dsl import TraceReport
from ..core.storage import MemoryEvent, Storage

__all__ = [
    "PAPER_NELEM", "SWEEPS_PER_STEP", "FORWARD_WINDOW",
    "candidate_regions", "forwarded", "Layout", "tiled", "effectiveness",
    "cold_mesh_dram_bytes", "BOLUND_NODE_ELEMENT_RATIO",
]

#: Element count of the paper's Bolund mesh; runtimes extrapolate to it.
PAPER_NELEM = 32.6e6

#: The paper's reported runtimes correspond to three assembly sweeps per
#: time step (explicit Runge-Kutta substeps): e.g. Table II's baseline at
#: 163 GFlop/s and 6293 Flop/element over 3773 ms implies ~98M element
#: assemblies on the 32.6M-element mesh.
SWEEPS_PER_STEP = 3

#: Events within which a compiler keeps a just-touched private slot in a
#: register (fitted to variant P's ~2x load/store reduction).
FORWARD_WINDOW = 8

#: 5.6M nodes / 32M elements of the paper's Bolund mesh.
BOLUND_NODE_ELEMENT_RATIO = 5.6 / 32.0


def candidate_regions(report: TraceReport) -> Dict[str, str]:
    """Every temp array's first region, before a register budget applies.

    Private arrays with compile-time indices are register candidates;
    private arrays with runtime indices live in local memory (the CPU's
    stack); everything else is a global temporary.
    """
    region: Dict[str, str] = {}
    for name, spec in report.temps.items():
        if spec.storage is Storage.PRIVATE and spec.static:
            region[name] = "register"
        elif spec.storage is Storage.PRIVATE:
            region[name] = "local"
        else:
            region[name] = "global"
    return region


def forwarded(
    report: TraceReport, region_of: Dict[str, str], window: int = FORWARD_WINDOW
) -> List[Tuple[str, MemoryEvent]]:
    """Return the ``(region, event)`` pairs that reach memory.

    Register-resident array accesses vanish entirely (they are the
    registers).  A local access within ``window`` events of the previous
    access to the same slot is forwarded from a register and vanishes too;
    ``window=0`` forwards nothing.  Global temporaries get no forwarding --
    the paper observed both compilers reloading even just-stored zeros --
    and mesh traffic always survives.
    """
    out: List[Tuple[str, MemoryEvent]] = []
    last_touch: Dict[Tuple[str, int], int] = {}
    for i, ev in enumerate(report.pattern):
        if ev.storage is Storage.MESH:
            out.append(("mesh", ev))
            continue
        region = region_of.get(ev.array, "global")
        if region == "register":
            continue
        if region == "local":
            key = (ev.array, ev.offset)
            prev = last_touch.get(key)
            last_touch[key] = i
            if prev is not None and i - prev <= window:
                continue
        out.append((region, ev))
    return out


class Layout:
    """Virtual addresses of a replay: one disjoint 2**44-byte range per
    ``(region, array)``, numbered in the order the replay first touches
    them."""

    def __init__(self) -> None:
        self._base: Dict[Tuple[str, str], int] = {}

    def base(self, region: str, array: str) -> int:
        key = (region, array)
        b = self._base.get(key)
        if b is None:
            b = (len(self._base) + 1) << 44
            self._base[key] = b
        return b

    def mesh_lines(self, ev: MemoryEvent, nodes: np.ndarray, granule: int) -> List[int]:
        """Distinct ``granule``-byte lines a mesh access touches when its
        lanes address the given nodes (32-B sectors on the GPU, 64-B lines
        on the CPU)."""
        addrs = self.base("mesh", ev.array) + (nodes * 3 + ev.component) * 8
        return np.unique(addrs // granule).tolist()


def tiled(connectivity: np.ndarray, nelem: int) -> np.ndarray:
    """The connectivity repeated until it has at least ``nelem`` rows."""
    if connectivity.shape[0] < nelem:
        reps = -(-nelem // connectivity.shape[0])
        connectivity = np.tile(connectivity, (reps, 1))
    return connectivity


def effectiveness(volume: float, next_volume: float) -> float:
    """Fraction of a level's traffic the next level does not see."""
    return max(0.0, 1.0 - next_volume / volume) if volume else 0.0


def cold_mesh_dram_bytes(
    node_element_ratio: float = BOLUND_NODE_ELEMENT_RATIO,
    locality_factor: float = 3.0,
    connectivity_bytes: float = 32.0,
) -> float:
    """Compulsory per-element DRAM bytes for a full-size mesh sweep."""
    nodal_loads = (24.0 + 24.0) * node_element_ratio * locality_factor
    rhs_update = 48.0 * node_element_ratio * locality_factor
    return connectivity_bytes + nodal_loads + rhs_update
