"""GPU execution model (the paper's A100 measurements, simulated).

There is no GPU in this reproduction environment, so this module *is* the
substitute for OpenACC + A100 + Nsight Compute: it consumes the
instruction/memory trace a kernel variant produced under the
:class:`~repro.core.dsl.TracingBackend` and derives the quantities of the
paper's Table II -- per-element global/local load-store and FP operation
counts, L1/L2/DRAM volumes and effectiveness, register allocation,
occupancy, and a roofline-with-latency runtime estimate.

The model runs the four stages of :mod:`repro.machine.traffic`'s method;
this module holds the three that are the A100's own:

1. **Register allocation / storage mapping** (Sec. V-C of the paper,
   Table III):  private arrays with compile-time-constant indices are
   register candidates; their *liveness-weighted* footprint plus the
   expression-temporary high-water mark gives the register demand.  If the
   demand exceeds the 255-register limit, the largest arrays spill to local
   memory.  Private arrays with runtime indices always live in local
   memory.  Global-temp kernels pay a fitted address-generation overhead
   which drives them to the 255-register ceiling, as both paper baselines
   do.  (Constants fitted to Table II: see ``_REG_*`` below.)
2. **Register forwarding**: the shared
   :func:`~repro.machine.traffic.forwarded` filter.
3. **Cache simulation**: the filtered pattern is replayed warp-by-warp
   (each warp owns 32 consecutive elements) over an LRU L1 per SM and a
   shared LRU L2 scaled to the number of simulated SMs.  Mesh accesses use
   real mesh connectivity so nodal reuse between neighbouring elements is
   captured; atomically-reduced RHS updates are serviced at the L2 (as on
   the A100); local-memory lines of finished warps are invalidated without
   writeback (Table III's mechanism).
4. **Timing**: ``T = max(T_flop, T_L2, T_DRAM)`` with the DRAM term limited
   by a Little's-law concurrency bound ``BW_eff = min(BW, inflight bytes /
   latency)`` where the in-flight bytes grow with occupancy and with the
   memory ILP measured on the trace.  This reproduces the paper's central
   observation that the baseline cannot saturate DRAM bandwidth (608 of
   1381 GB/s) while the privatized variant can.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..core.dsl import TraceReport
from ..core.storage import MemoryEvent
from .cache import LruCache
from .counters import GpuCounters
from .spec import A100_SXM4_40GB, GpuSpec
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

__all__ = ["GpuModel", "StorageMapping"]

# -- register-model constants, fitted to Table II (documented in DESIGN.md) --
_REG_BASE = 33  # bookkeeping registers of any kernel
_REG_LIVE = 2.0  # per peak live expression temporary
_REG_PRIVATE = 5.0 / 3.0  # per liveness-peak private slot (alloc slack)
_REG_PER_ARRAY = 7  # address registers per memory-resident temp array
_REG_GENERIC = 62  # generic-indexing overhead when temp arrays are in memory

# -- cache-replay and timing constants (documented in DESIGN.md) --
_SIM_SMS = 4  # SMs the replay simulates (the L2 is scaled to their share)
_BATCHES_PER_WARP = 2  # replayed element batches per simulated warp
_INTERLEAVE_EVENTS = 8  # events a warp issues before the next warp's turn
_L2_EFFICIENCY = 0.45  # achievable fraction of L2 peak at 16 warps/SM
_SECTOR = 32  # bytes: the A100's transfer granularity


@dataclasses.dataclass
class StorageMapping:
    """Outcome of stage 1: where every temp array lives, and the register
    allocation / occupancy it implies."""

    registers: int
    warps_per_sm: int
    occupancy: float
    region_of: Dict[str, str]  # array -> "register" | "local" | "global"
    spilled_arrays: Tuple[str, ...]


def _private_liveness_peak(report: TraceReport, arrays: Sequence[str]) -> int:
    """Peak simultaneous footprint (slots) of the given arrays.

    Liveness of an array spans from its first to its last event in the
    pattern; the peak is the largest sum of sizes of simultaneously live
    arrays.
    """
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for i, ev in enumerate(report.pattern):
        if ev.array in arrays:
            first.setdefault(ev.array, i)
            last[ev.array] = i
    if not first:
        return 0
    points = sorted({*first.values(), *last.values()})
    peak = 0
    for p in points:
        live = sum(
            report.temps[a].size
            for a in first
            if first[a] <= p <= last[a]
        )
        peak = max(peak, live)
    return peak


class GpuModel:
    """A100 execution model; see module docstring for the staged design."""

    def __init__(self, spec: GpuSpec = A100_SXM4_40GB) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    # Stage 1: registers / storage mapping
    # ------------------------------------------------------------------
    def map_storage(self, report: TraceReport) -> StorageMapping:
        region = candidate_regions(report)
        reg_candidates = [a for a, r in region.items() if r == "register"]
        memory_arrays = [a for a, r in region.items() if r != "register"]

        def demand(priv_peak: int) -> float:
            d = _REG_BASE + _REG_LIVE * report.peak_live_values
            d += _REG_PRIVATE * priv_peak
            if memory_arrays:
                d += _REG_PER_ARRAY * len(memory_arrays) + _REG_GENERIC
            return d

        spilled: List[str] = []
        # Spill largest register-candidate arrays until the demand fits.
        cands = sorted(
            reg_candidates, key=lambda a: report.temps[a].size, reverse=True
        )
        cur_peak = _private_liveness_peak(report, reg_candidates)
        while cands and demand(cur_peak) > self.spec.max_registers_per_thread:
            victim = cands.pop(0)
            region[victim] = "local"
            spilled.append(victim)
            memory_arrays.append(victim)
            cur_peak = _private_liveness_peak(report, cands)

        registers = int(
            min(self.spec.max_registers_per_thread, round(demand(cur_peak)))
        )
        warps = self.spec.warps_for_registers(registers)
        return StorageMapping(
            registers=registers,
            warps_per_sm=warps,
            occupancy=warps / self.spec.max_warps_per_sm,
            region_of=region,
            spilled_arrays=tuple(spilled),
        )

    # ------------------------------------------------------------------
    # Stage 3: cache simulation
    # ------------------------------------------------------------------
    def simulate_caches(
        self,
        filtered: List[Tuple[str, MemoryEvent]],
        mapping: StorageMapping,
        connectivity: np.ndarray,
    ) -> Dict[str, float]:
        """Replay the pattern warp-by-warp through L1/L2 (see class doc).

        Accounting is in 32-byte sectors (the A100's transfer granularity):
        a coalesced warp access to a temporary strided by the replayed
        element count is one aligned 256-byte block (weight 8), a scattered
        mesh access touches the distinct sectors of its 32 lanes (weight 1
        each).  Stores write through to the L2 and evict the L1 copy;
        local-memory lines of finished warps are invalidated without DRAM
        writeback.

        Returns per-element byte volumes.
        """
        spec = self.spec
        warp = spec.warp_size
        nwarps = _SIM_SMS * mapping.warps_per_sm
        nelem_sim = nwarps * warp * _BATCHES_PER_WARP
        connectivity = tiled(connectivity, nelem_sim)

        block = warp * 8  # one coalesced warp access
        l1_sectors = max(8, spec.l1_bytes_per_sm // _SECTOR)
        l2_sectors = max(
            64, int(spec.l2_bytes * _SIM_SMS / spec.num_sms) // _SECTOR
        )

        l2 = LruCache(l2_sectors)
        l1s = [LruCache(l1_sectors) for _ in range(_SIM_SMS)]
        layout = Layout()

        def touch(l1: LruCache, line: int, store: bool, weight: int) -> None:
            if store:
                # write-through to L2, write-evict in L1
                l1.invalidate((line,))
                l2.access(line, store=True, weight=weight)
            elif not l1.access(line, store=False, weight=weight):
                l2.access(line, store=False, weight=weight)

        for batch in range(_BATCHES_PER_WARP):
            local_blocks: List[Set[int]] = [set() for _ in range(nwarps)]
            base_elem = batch * nwarps * warp
            # Every warp runs the same pattern: each takes its turn of
            # _INTERLEAVE_EVENTS events before the next warp's turn.
            for start in range(0, len(filtered), _INTERLEAVE_EVENTS):
                turn = filtered[start : start + _INTERLEAVE_EVENTS]
                for w in range(nwarps):
                    l1 = l1s[w % _SIM_SMS]
                    e0 = base_elem + w * warp
                    for region, ev in turn:
                        store = ev.is_store()
                        if region == "mesh":
                            # Scattered indirect accesses touch the distinct
                            # 32-byte sectors of their 32 lanes.  Loads go
                            # through the L1; atomic RHS reductions are
                            # serviced at the L2 (as on the A100), where
                            # cross-warp nodal reuse lives.
                            nodes = connectivity[e0 : e0 + warp, ev.node_slot]
                            for sec in layout.mesh_lines(ev, nodes, _SECTOR):
                                touch(l1, sec, store, 1)
                            continue
                        blk = (
                            layout.base(region, ev.array)
                            + (ev.offset * nelem_sim + e0) * 8
                        ) // block
                        if region == "local":
                            local_blocks[w].add(blk)
                        touch(l1, blk, store, 8)
            # threads of this batch finish: local lines are invalidated
            # without DRAM writeback (Table III mechanism).
            for w in range(nwarps):
                if local_blocks[w]:
                    l1s[w % _SIM_SMS].invalidate(local_blocks[w])
                    l2.invalidate(local_blocks[w])

        # remaining dirty global data eventually reaches DRAM
        dram_units = (
            l2.stats.miss_units + l2.stats.writeback_units + l2.dirty_weight()
        )
        l2_units = l2.stats.hit_units + l2.stats.miss_units

        return {
            "l2_volume_bytes_per_elem": l2_units * _SECTOR / nelem_sim,
            "dram_volume_bytes_per_elem": dram_units * _SECTOR / nelem_sim,
        }

    # ------------------------------------------------------------------
    # Stage 4: timing + assembled counters
    # ------------------------------------------------------------------
    def run(
        self, variant: str, report: TraceReport, connectivity: np.ndarray
    ) -> GpuCounters:
        """Full pipeline: mapping, filtering, cache sim, timing."""
        spec = self.spec
        mapping = self.map_storage(report)
        filtered = forwarded(report, mapping.region_of)
        sim = self.simulate_caches(filtered, mapping, connectivity)

        # each surviving event is one instruction every lane executes
        ops_l = float(sum(region == "local" for region, _ in filtered))
        ops_g = len(filtered) - ops_l
        l1_volume = (ops_g + ops_l) * 8.0
        # compulsory full-size-mesh traffic the small simulated mesh hides
        cold = cold_mesh_dram_bytes()
        l2_volume = sim["l2_volume_bytes_per_elem"] + cold
        dram_volume = sim["dram_volume_bytes_per_elem"] + cold

        flops = float(report.flops)
        # Forwarding shortens dependent load/use chains: scale the traced
        # memory ILP by the access-elimination ratio.
        n_orig = max(1, len(report.pattern))
        n_filt = max(1, len(filtered))
        mlp = max(1.0, report.memory_ilp * n_orig / n_filt)

        # Little's-law DRAM bandwidth bound
        inflight = (
            spec.num_sms
            * mapping.warps_per_sm
            * mlp
            * spec.warp_size
            * 8.0
        )
        bw_eff = min(spec.dram_bandwidth, inflight / spec.dram_latency)

        t_flop = flops / spec.instruction_mix_roof
        # L2 bandwidth needs request concurrency: the achievable fraction of
        # the fitted peak scales with resident warps (16/SM saturate it).
        l2_bw_eff = (
            spec.l2_bandwidth
            * _L2_EFFICIENCY
            * min(1.0, mapping.warps_per_sm / 16.0)
        )
        t_l2 = l2_volume / l2_bw_eff
        t_dram = dram_volume / bw_eff
        t_elem = max(t_flop, t_l2, t_dram)
        runtime_s = t_elem * PAPER_NELEM * SWEEPS_PER_STEP

        return GpuCounters(
            variant=variant,
            global_loadstore=ops_g,
            local_loadstore=ops_l,
            flops=flops,
            l1_volume=l1_volume,
            l1_effectiveness=effectiveness(l1_volume, l2_volume),
            l2_volume=l2_volume,
            l2_effectiveness=effectiveness(l2_volume, dram_volume),
            dram_volume=dram_volume,
            registers=mapping.registers,
            warps_per_sm=mapping.warps_per_sm,
            occupancy=mapping.occupancy,
            gflops=flops / t_elem / 1e9,
            gbs=dram_volume / t_elem / 1e9,
            runtime_ms=runtime_s * 1e3,
            memory_ilp=mlp,
            spilled_arrays=mapping.spilled_arrays,
        )
