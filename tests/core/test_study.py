"""OptimizationStudy rendering edge cases and summary plumbing."""

import pytest

from repro.core import OptimizationStudy
from repro.fem import box_tet_mesh


@pytest.fixture(scope="module")
def study():
    return OptimizationStudy(mesh=box_tet_mesh(3, 3, 3))


def test_format_gpu_table_empty_returns_titled_table():
    out = OptimizationStudy.format_gpu_table([])
    assert "Table II" in out
    assert "empty" in out
    assert "variant" in out


def test_format_cpu_table_empty_returns_titled_table():
    out = OptimizationStudy.format_cpu_table([])
    assert "Table I" in out
    assert "empty" in out


def test_format_tables_nonempty_still_render(study):
    gpu = study.gpu_table(["RSPR"])
    cpu = study.cpu_table(["RSP"])
    assert "RSPR" in study.format_gpu_table(gpu)
    assert "RSP" in study.format_cpu_table(cpu)
