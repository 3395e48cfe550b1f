"""Hardware simulation substrate: machine specs, cache simulators, GPU and
CPU execution models, roofline and energy models."""

from .spec import A100_SXM4_40GB, ICELAKE_8360Y, CpuSpec, GpuSpec
from .cache import CacheStats, LruCache
from .counters import CpuCounters, GpuCounters, format_table
from .gpu import GpuModel, StorageMapping, GPU_SWEEPS_PER_STEP
from .cpu import CpuModel, CPU_SWEEPS_PER_STEP
from .roofline import Roofline, RooflinePoint, gpu_roofline, render_ascii
from .energy import EnergyEstimate, energy_comparison
from .traffic import cold_mesh_dram_bytes, BOLUND_NODE_ELEMENT_RATIO

__all__ = [
    "A100_SXM4_40GB", "ICELAKE_8360Y", "CpuSpec", "GpuSpec",
    "CacheStats", "LruCache",
    "CpuCounters", "GpuCounters", "format_table",
    "GpuModel", "StorageMapping", "GPU_SWEEPS_PER_STEP",
    "CpuModel", "CPU_SWEEPS_PER_STEP",
    "Roofline", "RooflinePoint", "gpu_roofline", "render_ascii",
    "EnergyEstimate", "energy_comparison",
    "cold_mesh_dram_bytes", "BOLUND_NODE_ELEMENT_RATIO",
]
