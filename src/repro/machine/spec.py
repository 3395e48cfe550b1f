"""Machine specifications of the paper's two test systems.

All numbers come from Section III of the paper (or the referenced cluster
documentation where the paper is silent):

* **GPU**: NVIDIA A100-SXM4-40GB from NHR@FAU's *Alex* cluster -- measured
  Scale-kernel bandwidth 1381 GB/s, FP64 peak 9.7 TFlop/s, machine balance
  7 Flop/B, 40 MB L2, 192 kB combined L1/shared per SM, 108 SMs, 255-register
  limit, 64 warps/SM occupancy ceiling.  The paper's Figure 3 adds an
  instruction-mix roof of 7.4 TFlop/s.
* **CPU**: dual-socket Intel Xeon Platinum 8360Y "Icelake" (2 x 36 cores)
  from NHR@FAU's *Fritz* cluster -- measured single-socket load bandwidth
  179 GB/s, single-socket AVX-512 FMA peak 2705 GFlop/s, machine balance
  15 Flop/B.  Turbo bins (Figure 2): 3.4 GHz up to 17 active cores, then
  3.1 GHz, then 2.6 GHz.

Energy figures (Section VI): 421 W per Alex GPU including its host share,
683 W per Fritz node, estimated from the systems' TOP500 entries.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

__all__ = ["GpuSpec", "CpuSpec", "A100_SXM4_40GB", "ICELAKE_8360Y"]


@dataclasses.dataclass(frozen=True)
class GpuSpec:
    """A GPU execution-model specification."""

    name: str
    num_sms: int
    warp_size: int
    max_warps_per_sm: int
    registers_per_sm: int
    max_registers_per_thread: int
    #: warp-allocation granularity of the register file
    register_allocation_granularity: int
    l1_bytes_per_sm: int
    l2_bytes: int
    sector_bytes: int
    dram_bandwidth: float  # B/s (measured Scale kernel)
    l2_bandwidth: float  # B/s
    fp64_peak: float  # Flop/s
    instruction_mix_roof: float  # Flop/s (Fig. 3 lower roof)
    dram_latency: float  # s
    power_watts: float

    @property
    def machine_intensity(self) -> float:
        """Machine balance in Flop/B (the roofline knee)."""
        return self.fp64_peak / self.dram_bandwidth

    def warps_for_registers(self, regs_per_thread: int) -> int:
        """Occupancy: warps/SM that fit the register file.

        Rounded down to the allocation granularity, clamped to the hardware
        maximum.  With the A100 numbers this reproduces the paper's +33%
        occupancy step from 148 to 128 registers.
        """
        regs_per_thread = max(1, int(regs_per_thread))
        raw = self.registers_per_sm // (regs_per_thread * self.warp_size)
        g = self.register_allocation_granularity
        fitted = (raw // g) * g
        return int(max(g, min(self.max_warps_per_sm, fitted)))


@dataclasses.dataclass(frozen=True)
class CpuSpec:
    """A CPU execution-model specification (one socket unless noted)."""

    name: str
    cores_per_socket: int
    sockets: int
    simd_width: int  # doubles per vector register (AVX-512: 8)
    #: 512-bit loads are emitted as two 256-bit halves by the compiler
    #: observed in the paper ("256bit split loads"), doubling ld/st counts.
    split_loads: bool
    l1_bytes: int
    l2_bytes: int
    l3_bytes: int  # shared per socket
    line_bytes: int
    load_store_ports: int
    fma_ports: int
    issue_width: int
    socket_bandwidth: float  # B/s (measured load bandwidth)
    socket_fp_peak: float  # Flop/s (measured AVX-512 FMA peak)
    turbo_bins: Tuple[Tuple[int, float], ...]  # (max active cores, GHz)
    node_power_watts: float

    @property
    def machine_intensity(self) -> float:
        return self.socket_fp_peak / self.socket_bandwidth

    @property
    def total_cores(self) -> int:
        return self.cores_per_socket * self.sockets

    def frequency(self, active_cores: int) -> float:
        """Turbo frequency in Hz for a number of active cores per socket."""
        for max_cores, ghz in self.turbo_bins:
            if active_cores <= max_cores:
                return ghz * 1e9
        return self.turbo_bins[-1][1] * 1e9

    @property
    def core_fp_peak(self) -> float:
        """Per-core FP64 peak at the measured all-core rate."""
        return self.socket_fp_peak / self.cores_per_socket


A100_SXM4_40GB = GpuSpec(
    name="NVIDIA A100-SXM4-40GB",
    num_sms=108,
    warp_size=32,
    max_warps_per_sm=64,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_allocation_granularity=4,
    l1_bytes_per_sm=192 * 1024,
    l2_bytes=40 * 1024 * 1024,
    sector_bytes=32,
    dram_bandwidth=1381e9,
    l2_bandwidth=4500e9,
    fp64_peak=9.7e12,
    instruction_mix_roof=7.4e12,
    dram_latency=430e-9,
    power_watts=421.0,
)

ICELAKE_8360Y = CpuSpec(
    name="Intel Xeon Platinum 8360Y (Icelake)",
    cores_per_socket=36,
    sockets=2,
    simd_width=8,
    split_loads=True,
    l1_bytes=48 * 1024,
    l2_bytes=1280 * 1024,
    l3_bytes=54 * 1024 * 1024,
    line_bytes=64,
    load_store_ports=2,
    fma_ports=2,
    issue_width=4,
    socket_bandwidth=179e9,
    socket_fp_peak=2705e9,
    turbo_bins=((17, 3.4), (24, 3.1), (36, 2.6)),
    node_power_watts=683.0,
)
