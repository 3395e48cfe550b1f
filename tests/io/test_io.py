"""VTK writer and paper-comparison reports."""

import numpy as np
import pytest

from repro.io import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    comparison_table_cpu,
    comparison_table_gpu,
    write_vtk,
)
from repro.machine.counters import format_table


def test_write_vtk_roundtrip(tmp_path, small_mesh):
    path = tmp_path / "out.vtk"
    u = np.random.default_rng(0).standard_normal((small_mesh.nnode, 3))
    p = np.arange(small_mesh.nnode, dtype=float)
    q = np.ones(small_mesh.nelem)
    write_vtk(str(path), small_mesh, point_data={"u": u, "p": p},
              cell_data={"q": q})
    text = path.read_text()
    assert f"POINTS {small_mesh.nnode} double" in text
    assert f"CELLS {small_mesh.nelem} {small_mesh.nelem * 5}" in text
    assert "VECTORS u double" in text
    assert "SCALARS p double 1" in text
    assert "CELL_DATA" in text
    assert text.count("\n10\n") >= 1  # tet cell type


def test_write_vtk_validates_shapes(tmp_path, small_mesh):
    with pytest.raises(ValueError, match="leading dim"):
        write_vtk(
            str(tmp_path / "x.vtk"), small_mesh,
            point_data={"bad": np.zeros(3)},
        )
    with pytest.raises(ValueError, match="must be"):
        write_vtk(
            str(tmp_path / "y.vtk"), small_mesh,
            point_data={"bad": np.zeros((small_mesh.nnode, 2))},
        )


def test_paper_tables_complete():
    assert set(PAPER_TABLE1) == {"B", "RS", "RSP"}
    assert set(PAPER_TABLE2) == {"B", "P", "RS", "RSP", "RSPR"}
    # spot values from the paper
    assert PAPER_TABLE2["RSPR"].get("runtime_ms") == 51
    assert PAPER_TABLE1["B"].get("runtime_1c_ms") == 44047


def test_comparison_tables_render(gpu_table, cpu_table):
    g = comparison_table_gpu([gpu_table["RS"]])
    assert "RS" in g and "/" in g
    c = comparison_table_cpu([cpu_table["RS"]])
    assert "RS" in c


def test_format_table_alignment():
    rows = [{"a": 1.23456, "b": "x"}, {"a": 2.0, "b": "longer"}]
    out = format_table(rows, ["a", "b"], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert len({len(l) for l in lines[1:]}) <= 2  # aligned
