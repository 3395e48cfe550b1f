"""CPU execution model (the paper's dual-Icelake measurements, simulated).

The LIKWID-counter analogue of :mod:`repro.machine.gpu`: consumes a kernel
trace and produces Table I's per-element columns plus the Figure 2 scaling
curves.  Register forwarding, address layout and the cold-mesh correction
are the shared stages of :mod:`repro.machine.traffic`; this module holds
what is the Icelake's own.

Model summary
-------------

* **Vector execution**: one core processes an element group of
  ``_VECTOR_DIM = 16`` lanes; every DSL statement is two AVX-512 vector
  operations (16 lanes / 8 doubles), and -- as the paper observed from the
  generated assembly -- 512-bit loads/stores are *split* into two 256-bit
  halves, doubling the load/store instruction count.
* **Register mapping**: the CPU has 32 ZMM registers; a handful are needed
  as working registers, leaving ``_REGISTER_SLOTS = 24`` lane-wide slots
  for privatized temporaries.  Whole arrays are promoted by access
  density until the budget is spent; remaining private arrays live on the
  stack (the ``"local"`` region) but benefit from compiler store-to-load
  forwarding within a short window.  Global-temp arrays always round-trip
  through the cache hierarchy (the baseline behaviour the paper
  describes).
* **Cache simulation**: write-back, write-allocate L1/L2/L3 LRU caches with
  64-byte lines; a vector statement touches two consecutive lines, mesh
  gathers touch the per-lane lines of the real connectivity.  The paper
  reports L2 and L3 together, and so do we.
* **Timing**: port-throughput model
  ``cycles = max(ldst / ldst_ports, fma / fma_ports, total / issue_width)``
  plus amortized miss penalties, at the turbo frequency of the active-core
  count.  Multi-core runtime (``_MULTICORE_WORKERS = 71`` workers for
  Table I) adds the socket bandwidth ceiling (which the paper notes is
  *not* reached -- linear scaling apart from turbo bins).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.dsl import TraceReport
from ..core.storage import MemoryEvent, Storage
from .cache import LruCache
from .counters import CpuCounters
from .spec import ICELAKE_8360Y, CpuSpec
from .traffic import (
    PAPER_NELEM,
    SWEEPS_PER_STEP,
    Layout,
    candidate_regions,
    cold_mesh_dram_bytes,
    effectiveness,
    forwarded,
    tiled,
)

__all__ = ["CpuModel"]

# Amortized out-of-order miss penalties (cycles per missed line); fitted so
# the baseline lands in the paper's single-core performance regime.
_L1_MISS_CYCLES = 2.0
_L2_MISS_CYCLES = 8.0
_L3_MISS_CYCLES = 28.0

# Element groups the single-core cache replay walks.
_SIM_GROUPS = 256

# Lanes of one element group: Alya's VECTOR_DIM on the CPU (Table I).
_VECTOR_DIM = 16

# Lane-wide ZMM slots left for privatized temporaries: 32 registers less
# the compiler's working set.
_REGISTER_SLOTS = 24

# MPI workers of Table I's full-node column: 72 cores less Alya's master.
_MULTICORE_WORKERS = 71


def _write_back_to(cache: LruCache) -> Callable[[int, bool], None]:
    """Eviction callback that writes a dirty line back into ``cache``."""

    def evict(line: int, dirty: bool) -> None:
        if dirty:
            cache.access(line, store=True, weight=1)

    return evict


class CpuModel:
    """Icelake execution model; see module docstring."""

    def __init__(self, spec: CpuSpec = ICELAKE_8360Y) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    def map_storage(self, report: TraceReport) -> Dict[str, str]:
        """Promote private arrays to vector registers by access density.

        Returns the region of every temp array, as the GPU model's
        ``StorageMapping.region_of`` does: a register candidate that does
        not fit the budget stays on the stack (``"local"``).
        """
        counts: Dict[str, int] = {}
        for ev in report.pattern:
            if ev.storage is Storage.PRIVATE:
                counts[ev.array] = counts.get(ev.array, 0) + 1
        region = candidate_regions(report)
        candidates = [a for a, r in region.items() if r == "register"]
        candidates.sort(
            key=lambda a: counts.get(a, 0) / max(1, report.temps[a].size),
            reverse=True,
        )
        budget = _REGISTER_SLOTS
        for name in candidates:
            size = report.temps[name].size
            if size <= budget:
                budget -= size
            else:
                region[name] = "local"
        return region

    # ------------------------------------------------------------------
    def simulate_caches(
        self, filtered: List[Tuple[str, MemoryEvent]], connectivity: np.ndarray
    ) -> Dict[str, float]:
        """Single-core cache replay over :data:`_SIM_GROUPS` element groups."""
        spec = self.spec
        vdim = _VECTOR_DIM
        line = spec.line_bytes
        connectivity = tiled(connectivity, _SIM_GROUPS * vdim)

        # write-back chaining: a dirty L1 eviction stores into the L2, etc.
        l3 = LruCache(max(8, spec.l3_bytes // line))
        l2 = LruCache(max(8, spec.l2_bytes // line), on_evict=_write_back_to(l3))
        l1 = LruCache(max(8, spec.l1_bytes // line), on_evict=_write_back_to(l2))
        layout = Layout()

        def probe(ln: int, store: bool) -> None:
            # a miss goes on to the next level and allocates at each
            if not l1.access(ln, store=store) and not l2.access(ln):
                l3.access(ln)

        for g in range(_SIM_GROUPS):
            e0 = g * vdim
            for region, ev in filtered:
                store = ev.is_store()
                if region == "mesh":
                    nodes = connectivity[e0 : e0 + vdim, ev.node_slot]
                    lines = layout.mesh_lines(ev, nodes, line)
                else:
                    # every group reuses the same addresses: stack arrays
                    # and global temps alike
                    addr0 = layout.base(region, ev.array) + ev.offset * vdim * 8
                    lines = range(addr0 // line, (addr0 + vdim * 8 - 1) // line + 1)
                for ln in lines:
                    probe(ln, store)

        nelem = float(_SIM_GROUPS) * vdim
        # One event is a vector statement over all vdim lanes: each element
        # sees one 8-byte lane-op per event, so per-element op count equals
        # events per group and the L1 volume is ops x 8 B (the paper's
        # convention).
        events_per_elem = float(len(filtered))
        l1_volume = events_per_elem * 8.0

        l2_requests = l2.stats.hits + l2.stats.misses
        l23_volume = l2_requests * line / nelem
        dram_volume = (l3.stats.misses + l3.stats.writebacks) * line / nelem
        return {
            "events_per_elem": events_per_elem,
            "l1_volume": l1_volume,
            "l23_volume": l23_volume,
            "dram_volume": dram_volume,
            "l1_miss_lines_per_elem": l1.stats.misses / nelem,
            "l2_miss_lines_per_elem": l2.stats.misses / nelem,
            "l3_miss_lines_per_elem": l3.stats.misses / nelem,
        }

    # ------------------------------------------------------------------
    def cycles_per_element(
        self, report: TraceReport, sim: Dict[str, float]
    ) -> float:
        """Port-throughput + miss-penalty cycle estimate per element."""
        spec = self.spec
        lanes_per_vec = spec.simd_width
        # per-element lane-op counts
        ldst_ops = sim["events_per_elem"]
        flop_ops = report.flops
        ldst_instr = ldst_ops / lanes_per_vec * (2.0 if spec.split_loads else 1.0)
        fma_instr = flop_ops / 2.0 / lanes_per_vec
        total_instr = ldst_instr + fma_instr * 1.5  # arithmetic + overhead
        cyc = max(
            ldst_instr / spec.load_store_ports,
            fma_instr / spec.fma_ports,
            total_instr / spec.issue_width,
        )
        cyc += sim["l1_miss_lines_per_elem"] * _L1_MISS_CYCLES
        cyc += sim["l2_miss_lines_per_elem"] * _L2_MISS_CYCLES
        cyc += sim["l3_miss_lines_per_elem"] * _L3_MISS_CYCLES
        return float(cyc)

    # ------------------------------------------------------------------
    def multicore_runtime(
        self, cycles_per_elem: float, dram_bytes_per_elem: float, workers: int
    ) -> float:
        """Wall time (s) for ``workers`` MPI worker processes.

        Workers are distributed round-robin over the two sockets; the
        per-socket active core count selects the turbo bin; the socket
        memory bandwidth caps the aggregate (the paper notes it never binds
        for this kernel).
        """
        spec = self.spec
        if workers < 1:
            raise ValueError("need at least one worker")
        workers = int(workers)
        per_socket = [
            workers // spec.sockets + (1 if s < workers % spec.sockets else 0)
            for s in range(spec.sockets)
        ]
        # elements are distributed evenly over workers
        elems_per_worker = PAPER_NELEM * SWEEPS_PER_STEP / workers
        times = []
        for cores in per_socket:
            if cores == 0:
                continue
            freq = self.spec.frequency(cores)
            t_compute = elems_per_worker * cycles_per_elem / freq
            socket_elems = elems_per_worker * cores
            t_mem = socket_elems * dram_bytes_per_elem / spec.socket_bandwidth
            times.append(max(t_compute, t_mem))
        return max(times)

    # ------------------------------------------------------------------
    def _replay(
        self, report: TraceReport, connectivity: np.ndarray
    ) -> Tuple[Dict[str, float], float]:
        """Map, forward and replay one kernel: ``(cache volumes, cycles per
        element)``."""
        filtered = forwarded(report, self.map_storage(report))
        sim = self.simulate_caches(filtered, connectivity)
        return sim, self.cycles_per_element(report, sim)

    def run(
        self, variant: str, report: TraceReport, connectivity: np.ndarray
    ) -> CpuCounters:
        """Full pipeline to one Table I column."""
        sim, cyc = self._replay(report, connectivity)
        freq1 = self.spec.frequency(1)
        t_elem = cyc / freq1
        runtime_1c = t_elem * PAPER_NELEM * SWEEPS_PER_STEP
        cold = cold_mesh_dram_bytes()
        l1v = sim["l1_volume"]
        l23v = sim["l23_volume"] + cold
        dram = sim["dram_volume"] + cold
        runtime_mc = self.multicore_runtime(cyc, dram, _MULTICORE_WORKERS)
        return CpuCounters(
            variant=variant,
            loadstore=sim["events_per_elem"],
            flops=float(report.flops),
            l1_volume=l1v,
            l1_effectiveness=effectiveness(l1v, l23v),
            l23_volume=l23v,
            l23_effectiveness=effectiveness(l23v, dram),
            dram_volume=dram,
            gflops_1c=report.flops / t_elem / 1e9,
            gbs_1c=dram / t_elem / 1e9,
            runtime_1c_ms=runtime_1c * 1e3,
            runtime_multicore_ms=runtime_mc * 1e3,
            multicore_workers=_MULTICORE_WORKERS,
        )

    # ------------------------------------------------------------------
    def scaling_curve(
        self,
        report: TraceReport,
        connectivity: np.ndarray,
        worker_counts: Optional[List[int]] = None,
    ) -> List[Dict[str, float]]:
        """Figure 2 data: Melem/s and wall time vs worker count."""
        sim, cyc = self._replay(report, connectivity)
        dram = sim["dram_volume"] + cold_mesh_dram_bytes()
        if worker_counts is None:
            worker_counts = [1, 2, 4, 8, 12, 17, 18, 24, 32, 48, 60, 71]
        rows = []
        for w in worker_counts:
            t = self.multicore_runtime(cyc, dram, w)
            rows.append(
                {
                    "workers": w,
                    "wall_ms": t * 1e3,
                    "melem_per_s": PAPER_NELEM * SWEEPS_PER_STEP / t / 1e6,
                }
            )
        return rows
