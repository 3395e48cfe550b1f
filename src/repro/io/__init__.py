"""I/O: legacy-VTK output and paper-comparison reports."""

from .vtk import write_vtk
from .report import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    comparison_table_cpu,
    comparison_table_gpu,
)

__all__ = [
    "write_vtk",
    "PAPER_TABLE1", "PAPER_TABLE2", "PAPER_TABLE3",
    "comparison_table_cpu", "comparison_table_gpu",
]
