"""Roofline model (Williams et al.) and the paper's Figure 3 series.

Figure 3 plots every GPU variant twice -- against DRAM arithmetic intensity
and against L2 arithmetic intensity -- under three roofs: the DRAM
bandwidth diagonal (1381 GB/s), the FP64 peak (9.7 TF/s) and the
application instruction-mix roof (7.4 TF/s).  The paper's punchline is that
the final variant **RSPR sits past the roofline knee**: its DRAM intensity
exceeds the machine balance, so DRAM bandwidth no longer limits it (the L2
does instead).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence

__all__ = ["Roofline", "RooflinePoint", "gpu_roofline", "render_ascii"]


@dataclasses.dataclass(frozen=True)
class RooflinePoint:
    """One kernel placed on the roofline."""

    label: str
    intensity: float  # Flop/B
    performance: float  # Flop/s

    def limited_by(self, roofline: "Roofline") -> str:
        """Which roof binds at this intensity."""
        mem = roofline.bandwidth * self.intensity
        return "memory" if mem < roofline.peak else "compute"


@dataclasses.dataclass(frozen=True)
class Roofline:
    """A single-bandwidth roofline."""

    name: str
    bandwidth: float  # B/s
    peak: float  # Flop/s
    secondary_peak: Optional[float] = None  # e.g. instruction-mix roof

    @property
    def knee(self) -> float:
        """Machine balance (Flop/B) where the roofs intersect."""
        return self.peak / self.bandwidth

    def attainable(self, intensity: float) -> float:
        """Attainable performance at an arithmetic intensity."""
        if intensity < 0:
            raise ValueError("arithmetic intensity must be non-negative")
        roof = self.peak
        if self.secondary_peak is not None:
            roof = min(roof, self.secondary_peak)
        return min(self.bandwidth * intensity, roof)

    def efficiency(self, point: RooflinePoint) -> float:
        """Fraction of the attainable performance the point achieves."""
        att = self.attainable(point.intensity)
        return point.performance / att if att > 0 else 0.0

    def series(
        self, intensities: Sequence[float]
    ) -> List[tuple]:
        """(intensity, attainable) pairs for plotting the roof."""
        return [(x, self.attainable(x)) for x in intensities]


def gpu_roofline(
    dram_bandwidth: float = 1381e9,
    fp64_peak: float = 9.7e12,
    instruction_mix_roof: float = 7.4e12,
) -> Roofline:
    """The paper's A100 roofline (Fig. 3 roofs)."""
    return Roofline(
        name="A100 DRAM roofline",
        bandwidth=dram_bandwidth,
        peak=fp64_peak,
        secondary_peak=instruction_mix_roof,
    )


def render_ascii(
    roofline: Roofline,
    points: Iterable[RooflinePoint],
    width: int = 68,
    height: int = 20,
    x_range: tuple = (0.1, 100.0),
) -> str:
    """Log-log ASCII roofline diagram (the text-mode Figure 3)."""
    import math

    points = list(points)
    x_lo, x_hi = x_range
    y_hi = roofline.peak * 2.0
    y_lo = roofline.attainable(x_lo) / 4.0

    def to_col(x: float) -> int:
        t = (math.log10(x) - math.log10(x_lo)) / (
            math.log10(x_hi) - math.log10(x_lo)
        )
        return min(width - 1, max(0, int(round(t * (width - 1)))))

    def to_row(y: float) -> int:
        t = (math.log10(y) - math.log10(y_lo)) / (
            math.log10(y_hi) - math.log10(y_lo)
        )
        return min(height - 1, max(0, height - 1 - int(round(t * (height - 1)))))

    grid = [[" "] * width for _ in range(height)]
    for c in range(width):
        x = 10 ** (
            math.log10(x_lo)
            + c / (width - 1) * (math.log10(x_hi) - math.log10(x_lo))
        )
        grid[to_row(roofline.attainable(x))][c] = "."
    for p in points:
        r, c = to_row(max(p.performance, y_lo)), to_col(
            min(max(p.intensity, x_lo), x_hi)
        )
        grid[r][c] = p.label[0]
    knee_c = to_col(roofline.knee)
    grid[0][knee_c] = "v"

    lines = ["".join(row) for row in grid]
    legend = ", ".join(
        f"{p.label}=({p.intensity:.2g} F/B, {p.performance/1e12:.2f} TF/s)"
        for p in points
    )
    header = (
        f"{roofline.name}: BW={roofline.bandwidth/1e9:.0f} GB/s, "
        f"peak={roofline.peak/1e12:.1f} TF/s, knee at {roofline.knee:.1f} F/B (v)"
    )
    return "\n".join([header, *lines, legend])
