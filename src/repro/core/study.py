"""The optimization study: one call per paper table/figure.

:class:`OptimizationStudy` wires the pieces together -- it traces every
kernel variant on a representative mesh, runs the GPU and CPU machine
models, and returns the paper's Tables I and II, the Figure 2 scaling
curves, the Figure 3 roofline points and the Section VI energy numbers.
``examples/optimization_study.py`` prints them, the ``tests/machine``
suite pins their shapes, and the end-to-end benchmark's ``study_tables``
workload times one regeneration.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..fem.mesh import TetMesh
from ..fem.meshgen import box_tet_mesh
from ..machine.counters import CpuCounters, GpuCounters, format_table
from ..machine.cpu import CpuModel
from ..machine.energy import energy_comparison
from ..machine.gpu import GpuModel
from ..machine.roofline import Roofline, RooflinePoint, gpu_roofline
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.spans import NULL_TRACER
from ..physics.momentum import AssemblyParams
from .unified import UnifiedAssembler
from .variants import variant_names

__all__ = ["OptimizationStudy", "PAPER_NELEM"]

#: Element count of the paper's Bolund mesh.
PAPER_NELEM = 32.6e6


class OptimizationStudy:
    """Run the paper's measurement campaign on the machine models.

    Parameters
    ----------
    mesh:
        Representative mesh driving the cache simulators' mesh traffic
        (defaults to a 12^3 box -- per-element behaviour is what matters).
    params:
        Assembly parameters (must match the specialized kernels).
    nelem_total:
        Mesh size runtimes are extrapolated to (paper: 32.6M elements).
    seed:
        RNG seed for the synthetic velocity field used while tracing.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When enabled, every variant
        gets a nested span tree (``variant`` > ``kernel_trace`` /
        ``gpu_model`` / ``cpu_model``) suitable for Chrome-trace export.
    metrics:
        Registry receiving per-variant model runtimes
        (``study.gpu_runtime_ms.<V>`` / ``study.cpu_runtime_ms.<V>``
        gauges); defaults to the process-wide registry.
    """

    def __init__(
        self,
        mesh: Optional[TetMesh] = None,
        params: Optional[AssemblyParams] = None,
        gpu_model: Optional[GpuModel] = None,
        cpu_model: Optional[CpuModel] = None,
        nelem_total: float = PAPER_NELEM,
        seed: int = 2024,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.mesh = mesh if mesh is not None else box_tet_mesh(12, 12, 12)
        self.params = params if params is not None else AssemblyParams(
            body_force=(0.0, 0.0, 0.1)
        )
        self.gpu_model = gpu_model if gpu_model is not None else GpuModel()
        self.cpu_model = cpu_model if cpu_model is not None else CpuModel()
        self.nelem_total = float(nelem_total)
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._metrics = metrics
        rng = np.random.default_rng(seed)
        self.velocity = 0.1 * rng.standard_normal((self.mesh.nnode, 3))
        self.assembler = UnifiedAssembler(
            self.mesh, self.params, vector_dim=64, tracer=self.tracer
        )
        self._traces: Dict[str, object] = {}

    @property
    def metrics(self) -> MetricsRegistry:
        return get_registry() if self._metrics is None else self._metrics

    # ------------------------------------------------------------------
    def trace(self, variant: str):
        """Cached kernel trace of a variant."""
        if variant not in self._traces:
            self._traces[variant] = self.assembler.trace(variant, self.velocity)
        return self._traces[variant]

    # ------------------------------------------------------------------
    # Table II
    # ------------------------------------------------------------------
    def gpu_table(self, variants: Optional[List[str]] = None) -> List[GpuCounters]:
        """Table II: GPU counters for B, P, RS, RSP, RSPR."""
        names = variants or list(variant_names("gpu"))
        out: List[GpuCounters] = []
        with self.tracer.span("gpu_table", variants=list(names)):
            for v in names:
                with self.tracer.span("variant", variant=v, target="gpu"):
                    trace = self.trace(v)
                    with self.tracer.span("gpu_model", variant=v):
                        counters = self.gpu_model.run(
                            v, trace, self.mesh.connectivity, self.nelem_total
                        )
                    self.metrics.gauge(f"study.gpu_runtime_ms.{v}").set(
                        counters.runtime_ms
                    )
                    out.append(counters)
        return out

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def cpu_table(self, variants: Optional[List[str]] = None) -> List[CpuCounters]:
        """Table I: CPU counters for B, RS, RSP."""
        names = variants or list(variant_names("cpu"))
        out: List[CpuCounters] = []
        with self.tracer.span("cpu_table", variants=list(names)):
            for v in names:
                with self.tracer.span("variant", variant=v, target="cpu"):
                    trace = self.trace(v)
                    with self.tracer.span("cpu_model", variant=v):
                        counters = self.cpu_model.run(
                            v, trace, self.mesh.connectivity, self.nelem_total
                        )
                    self.metrics.gauge(f"study.cpu_runtime_ms.{v}").set(
                        counters.runtime_1c_ms
                    )
                    out.append(counters)
        return out

    # ------------------------------------------------------------------
    # Figure 2
    # ------------------------------------------------------------------
    def cpu_scaling(
        self,
        variants: Optional[List[str]] = None,
        worker_counts: Optional[List[int]] = None,
    ) -> Dict[str, List[Dict[str, float]]]:
        """Figure 2: per-variant Melem/s and wall time vs worker count."""
        names = variants or list(variant_names("cpu"))
        return {
            v: self.cpu_model.scaling_curve(
                self.trace(v),
                self.mesh.connectivity,
                worker_counts,
                self.nelem_total,
            )
            for v in names
        }

    # ------------------------------------------------------------------
    # Figure 3
    # ------------------------------------------------------------------
    def roofline_points(
        self, table: Optional[List[GpuCounters]] = None
    ) -> Dict[str, List[RooflinePoint]]:
        """Figure 3: DRAM- and L2-intensity points for the GPU variants."""
        table = table if table is not None else self.gpu_table()
        dram_pts = [
            RooflinePoint(c.variant, c.dram_intensity, c.gflops * 1e9)
            for c in table
        ]
        l2_pts = [
            RooflinePoint(c.variant, c.l2_intensity, c.gflops * 1e9)
            for c in table
        ]
        return {"dram": dram_pts, "l2": l2_pts}

    def roofline(self) -> Roofline:
        spec = self.gpu_model.spec
        return gpu_roofline(
            spec.dram_bandwidth, spec.fp64_peak, spec.instruction_mix_roof
        )

    # ------------------------------------------------------------------
    # Section VI
    # ------------------------------------------------------------------
    def energy(
        self,
        gpu_table: Optional[List[GpuCounters]] = None,
        cpu_table: Optional[List[CpuCounters]] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Energy comparison (best GPU variant vs best CPU full node)."""
        gpu_table = gpu_table if gpu_table is not None else self.gpu_table()
        cpu_table = cpu_table if cpu_table is not None else self.cpu_table()
        return energy_comparison(
            {c.variant: c.runtime_ms for c in gpu_table},
            {c.variant: c.runtime_multicore_ms for c in cpu_table},
            gpu_power=self.gpu_model.spec.power_watts,
            cpu_power=self.cpu_model.spec.node_power_watts,
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    @staticmethod
    def format_gpu_table(table: List[GpuCounters]) -> str:
        rows = [
            {
                "variant": c.variant,
                "global ld/st": c.global_loadstore,
                "local ld/st": c.local_loadstore,
                "flops": c.flops,
                "L1 B (eff)": f"{c.l1_volume:.0f} ({c.l1_effectiveness:.0%})",
                "L2 B (eff)": f"{c.l2_volume:.0f} ({c.l2_effectiveness:.0%})",
                "DRAM B": c.dram_volume,
                "regs": c.registers,
                "GFlop/s": c.gflops,
                "GB/s": c.gbs,
                "runtime ms": c.runtime_ms,
            }
            for c in table
        ]
        if not rows:
            return format_table(
                [], ["variant"], title="Table II (GPU, per element) -- empty"
            )
        cols = list(rows[0].keys())
        return format_table(rows, cols, title="Table II (GPU, per element)")

    @staticmethod
    def format_cpu_table(table: List[CpuCounters]) -> str:
        rows = [
            {
                "variant": c.variant,
                "ld/st": c.loadstore,
                "flops": c.flops,
                "L1 B (eff)": f"{c.l1_volume:.0f} ({c.l1_effectiveness:.0%})",
                "L2/L3 B (eff)": f"{c.l23_volume:.0f} ({c.l23_effectiveness:.0%})",
                "DRAM B": c.dram_volume,
                "GFlop/s 1c": c.gflops_1c,
                "GB/s 1c": c.gbs_1c,
                "runtime 1c ms": c.runtime_1c_ms,
                f"runtime {c.multicore_workers}c ms": c.runtime_multicore_ms,
            }
            for c in table
        ]
        if not rows:
            return format_table(
                [], ["variant"], title="Table I (CPU, per element) -- empty"
            )
        cols = list(rows[0].keys())
        return format_table(rows, cols, title="Table I (CPU, per element)")
