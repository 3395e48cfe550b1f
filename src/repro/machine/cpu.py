"""CPU execution model (the paper's dual-Icelake measurements, simulated).

The LIKWID-counter analogue of :mod:`repro.machine.gpu`: consumes a kernel
trace and produces Table I's per-element columns plus the Figure 2 scaling
curves.

Model summary
-------------

* **Vector execution**: one core processes an element group of
  ``VECTOR_DIM = 16`` lanes; every DSL statement is two AVX-512 vector
  operations (16 lanes / 8 doubles), and -- as the paper observed from the
  generated assembly -- 512-bit loads/stores are *split* into two 256-bit
  halves, doubling the load/store instruction count.
* **Register mapping**: the CPU has 32 ZMM registers; a handful are needed
  as working registers, leaving ``register_slots`` (default 24) lane-wide
  slots for privatized temporaries.  Whole arrays are promoted by access
  density until the budget is spent; remaining private arrays live on the
  stack but benefit from compiler store-to-load forwarding within a short
  window.  Global-temp arrays always round-trip through the cache
  hierarchy (the baseline behaviour the paper describes).
* **Cache simulation**: write-back, write-allocate L1/L2/L3 LRU caches with
  64-byte lines; a vector statement touches two consecutive lines, mesh
  gathers touch the per-lane lines of the real connectivity.  The paper
  reports L2 and L3 together, and so do we.
* **Timing**: port-throughput model
  ``cycles = max(ldst / ldst_ports, fma / fma_ports, total / issue_width)``
  plus amortized miss penalties, at the turbo frequency of the active-core
  count.  Multi-core runtime adds the socket bandwidth ceiling (which the
  paper notes is *not* reached -- linear scaling apart from turbo bins).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.dsl import TraceReport
from ..core.storage import MemoryEvent, Storage
from .cache import LruCache
from .counters import CpuCounters
from .spec import ICELAKE_8360Y, CpuSpec
from .traffic import cold_mesh_dram_bytes

__all__ = ["CpuModel", "CPU_SWEEPS_PER_STEP"]

#: Same convention as the GPU model: reported runtimes cover three assembly
#: sweeps (Runge-Kutta substeps) over the 32.6M-element mesh.
CPU_SWEEPS_PER_STEP = 3

# Amortized out-of-order miss penalties (cycles per missed line); fitted so
# the baseline lands in the paper's single-core performance regime.
_L1_MISS_CYCLES = 2.0
_L2_MISS_CYCLES = 8.0
_L3_MISS_CYCLES = 28.0

# Element groups the single-core cache replay walks.
_SIM_GROUPS = 256


@dataclasses.dataclass
class CpuStorageMapping:
    """Where each temp array lives on the CPU path."""

    register_arrays: Tuple[str, ...]
    stack_arrays: Tuple[str, ...]
    global_arrays: Tuple[str, ...]


class CpuModel:
    """Icelake execution model; see module docstring."""

    def __init__(
        self,
        spec: CpuSpec = ICELAKE_8360Y,
        vector_dim: int = 16,
        register_slots: int = 24,
        forward_window: int = 8,
    ) -> None:
        self.spec = spec
        self.vector_dim = int(vector_dim)
        self.register_slots = int(register_slots)
        self.forward_window = int(forward_window)

    # ------------------------------------------------------------------
    def map_storage(self, report: TraceReport) -> CpuStorageMapping:
        """Promote private arrays to vector registers by access density."""
        counts: Dict[str, int] = {}
        for ev in report.pattern:
            if ev.storage is Storage.PRIVATE:
                counts[ev.array] = counts.get(ev.array, 0) + 1
        regs: List[str] = []
        stack: List[str] = []
        budget = self.register_slots
        candidates = [
            (name, counts.get(name, 0) / max(1, spec.size))
            for name, spec in report.temps.items()
            if spec.storage is Storage.PRIVATE and spec.static
        ]
        candidates.sort(key=lambda kv: kv[1], reverse=True)
        for name, _density in candidates:
            size = report.temps[name].size
            if size <= budget:
                regs.append(name)
                budget -= size
            else:
                stack.append(name)
        for name, spec in report.temps.items():
            if spec.storage is Storage.PRIVATE and not spec.static:
                stack.append(name)
        glob = [
            name
            for name, spec in report.temps.items()
            if spec.storage is Storage.GLOBAL_TEMP
        ]
        return CpuStorageMapping(
            register_arrays=tuple(regs),
            stack_arrays=tuple(stack),
            global_arrays=tuple(glob),
        )

    # ------------------------------------------------------------------
    def filter_pattern(
        self, report: TraceReport, mapping: CpuStorageMapping
    ) -> List[Tuple[str, MemoryEvent]]:
        """Apply register promotion and store-to-load forwarding."""
        regs = set(mapping.register_arrays)
        stack = set(mapping.stack_arrays)
        out: List[Tuple[str, MemoryEvent]] = []
        last_touch: Dict[Tuple[str, int], int] = {}
        for i, ev in enumerate(report.pattern):
            if ev.storage is Storage.MESH:
                out.append(("mesh", ev))
                continue
            if ev.array in regs:
                continue
            if ev.array in stack:
                key = (ev.array, ev.offset)
                prev = last_touch.get(key)
                last_touch[key] = i
                if prev is not None and i - prev <= self.forward_window:
                    continue
                out.append(("stack", ev))
            else:
                out.append(("global", ev))
        return out

    # ------------------------------------------------------------------
    def simulate_caches(
        self,
        filtered: List[Tuple[str, MemoryEvent]],
        connectivity: np.ndarray,
    ) -> Dict[str, float]:
        """Single-core cache replay over :data:`_SIM_GROUPS` element groups."""
        spec = self.spec
        vdim = self.vector_dim
        line = spec.line_bytes
        nelem_needed = _SIM_GROUPS * vdim
        if connectivity.shape[0] < nelem_needed:
            reps = -(-nelem_needed // connectivity.shape[0])
            connectivity = np.tile(connectivity, (reps, 1))

        l3_stats = {"miss_units": 0, "wb_units": 0}

        l3 = LruCache(max(8, spec.l3_bytes // line))
        l2 = LruCache(max(8, spec.l2_bytes // line))
        l1 = LruCache(max(8, spec.l1_bytes // line))

        # write-back chaining: L1 evict dirty -> L2 access(store); etc.
        def l1_evict(ln: int, dirty: bool) -> None:
            if dirty:
                l2.access(ln, store=True, weight=1)

        def l2_evict(ln: int, dirty: bool) -> None:
            if dirty:
                l3.access(ln, store=True, weight=1)

        def l3_evict(ln: int, dirty: bool) -> None:
            if dirty:
                l3_stats["wb_units"] += 1

        l1.on_evict = l1_evict
        l2.on_evict = l2_evict
        l3.on_evict = l3_evict

        array_base: Dict[Tuple[str, str], int] = {}

        def base_of(region: str, array: str) -> int:
            key = (region, array)
            b = array_base.get(key)
            if b is None:
                b = (len(array_base) + 1) << 44
                array_base[key] = b
            return b

        def probe(ln: int, store: bool) -> None:
            if l1.access(ln, store=store, weight=1):
                return
            if l2.access(ln, store=False, weight=1):
                return
            l3.access(ln, store=False, weight=1)

        ops = 0
        mesh_ops = 0
        for g in range(_SIM_GROUPS):
            e0 = g * vdim
            lanes = np.arange(e0, e0 + vdim)
            for region, ev in filtered:
                store = ev.is_store()
                if region == "mesh":
                    mesh_ops += 1
                    nodes = connectivity[e0 : e0 + vdim, ev.node_slot]
                    addrs = base_of("mesh", ev.array) + (
                        nodes * 3 + ev.component
                    ) * 8
                    for ln in np.unique(addrs // line):
                        probe(int(ln), store)
                else:
                    ops += 1
                    # stack arrays are reused across groups (same virtual
                    # address every call); global temps are distinct per
                    # group in the Alya allocation style.
                    if region == "stack":
                        addr0 = base_of(region, ev.array) + ev.offset * vdim * 8
                    else:
                        addr0 = base_of(region, ev.array) + (
                            ev.offset * vdim + 0
                        ) * 8
                    ln0 = addr0 // line
                    ln1 = (addr0 + vdim * 8 - 1) // line
                    for ln in range(ln0, ln1 + 1):
                        probe(ln, store)

        ngroups = float(_SIM_GROUPS)
        nelem = ngroups * vdim
        # One event is a vector statement over all vdim lanes: each element
        # sees one 8-byte lane-op per event, so per-element op count equals
        # events per group and the L1 volume is ops x 8 B (the paper's
        # convention).
        events_per_elem = (ops + mesh_ops) / ngroups
        l1_volume = events_per_elem * 8.0

        l2_requests = l2.stats.hits + l2.stats.misses
        l3_requests = l3.stats.hits + l3.stats.misses
        l23_volume = l2_requests * line / nelem
        dram_volume = (l3.stats.misses + l3_stats["wb_units"]) * line / nelem
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
        self,
        cycles_per_elem: float,
        dram_bytes_per_elem: float,
        workers: int,
        nelem_total: float,
        sweeps: int = CPU_SWEEPS_PER_STEP,
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
        elems_per_worker = nelem_total * sweeps / workers
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
    def run(
        self,
        variant: str,
        report: TraceReport,
        connectivity: np.ndarray,
        nelem_total: float = 32.6e6,
        sweeps: int = CPU_SWEEPS_PER_STEP,
        multicore_workers: int = 71,
    ) -> CpuCounters:
        """Full pipeline to one Table I column."""
        mapping = self.map_storage(report)
        filtered = self.filter_pattern(report, mapping)
        sim = self.simulate_caches(filtered, connectivity)
        cyc = self.cycles_per_element(report, sim)
        freq1 = self.spec.frequency(1)
        t_elem = cyc / freq1
        runtime_1c = t_elem * nelem_total * sweeps
        cold = cold_mesh_dram_bytes()
        l1v = sim["l1_volume"]
        l23v = sim["l23_volume"] + cold
        dram = sim["dram_volume"] + cold
        runtime_mc = self.multicore_runtime(
            cyc, dram, multicore_workers, nelem_total, sweeps
        )
        return CpuCounters(
            variant=variant,
            loadstore=sim["events_per_elem"],
            flops=float(report.flops),
            l1_volume=l1v,
            l1_effectiveness=max(0.0, 1.0 - l23v / l1v) if l1v else 0.0,
            l23_volume=l23v,
            l23_effectiveness=max(0.0, 1.0 - dram / l23v) if l23v else 0.0,
            dram_volume=dram,
            gflops_1c=report.flops / t_elem / 1e9,
            gbs_1c=dram / t_elem / 1e9,
            runtime_1c_ms=runtime_1c * 1e3,
            runtime_multicore_ms=runtime_mc * 1e3,
            multicore_workers=multicore_workers,
        )

    # ------------------------------------------------------------------
    def scaling_curve(
        self,
        report: TraceReport,
        connectivity: np.ndarray,
        worker_counts: Optional[List[int]] = None,
        nelem_total: float = 32.6e6,
        sweeps: int = CPU_SWEEPS_PER_STEP,
    ) -> List[Dict[str, float]]:
        """Figure 2 data: Melem/s and wall time vs worker count."""
        mapping = self.map_storage(report)
        filtered = self.filter_pattern(report, mapping)
        sim = self.simulate_caches(filtered, connectivity)
        cyc = self.cycles_per_element(report, sim)
        dram = sim["dram_volume"] + cold_mesh_dram_bytes()
        if worker_counts is None:
            worker_counts = [1, 2, 4, 8, 12, 17, 18, 24, 32, 48, 60, 71]
        rows = []
        for w in worker_counts:
            t = self.multicore_runtime(cyc, dram, w, nelem_total, sweeps)
            rows.append(
                {
                    "workers": w,
                    "wall_ms": t * 1e3,
                    "melem_per_s": nelem_total * sweeps / t / 1e6,
                }
            )
        return rows
