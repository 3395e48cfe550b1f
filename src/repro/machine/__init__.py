"""Hardware simulation substrate: machine specs, cache simulators, GPU and
CPU execution models, roofline and energy models."""

from .spec import A100_SXM4_40GB, ICELAKE_8360Y, CpuSpec, GpuSpec
from .cache import CacheStats, LruCache
from .counters import CpuCounters, GpuCounters, format_table
from .gpu import GpuModel, StorageMapping
from .cpu import CpuModel
from .roofline import Roofline, RooflinePoint, gpu_roofline, render_ascii
from .energy import EnergyEstimate, energy_comparison
from .traffic import BOLUND_NODE_ELEMENT_RATIO, SWEEPS_PER_STEP, cold_mesh_dram_bytes

__all__ = [
    "A100_SXM4_40GB", "ICELAKE_8360Y", "CpuSpec", "GpuSpec",
    "CacheStats", "LruCache",
    "CpuCounters", "GpuCounters", "format_table",
    "GpuModel", "StorageMapping", "CpuModel",
    "Roofline", "RooflinePoint", "gpu_roofline", "render_ascii",
    "EnergyEstimate", "energy_comparison",
    "cold_mesh_dram_bytes", "BOLUND_NODE_ELEMENT_RATIO",
    "SWEEPS_PER_STEP",
]
