"""Roofline model and the energy estimate."""

import pytest

from repro.machine import (
    EnergyEstimate,
    Roofline,
    RooflinePoint,
    energy_comparison,
    gpu_roofline,
    render_ascii,
)


@pytest.fixture()
def rl():
    return gpu_roofline()


def test_knee_location(rl):
    assert rl.knee == pytest.approx(9.7e12 / 1381e9, rel=1e-12)


def test_attainable_below_knee_is_bandwidth(rl):
    x = 1.0
    assert rl.attainable(x) == pytest.approx(1381e9)


def test_attainable_above_knee_is_mix_roof(rl):
    assert rl.attainable(100.0) == pytest.approx(7.4e12)


def test_attainable_monotone(rl):
    xs = [0.1, 0.5, 1, 2, 5, 7, 10, 50]
    ys = [rl.attainable(x) for x in xs]
    assert ys == sorted(ys)


def test_attainable_rejects_negative(rl):
    with pytest.raises(ValueError):
        rl.attainable(-1.0)


def test_point_limited_by(rl):
    low = RooflinePoint("b", 0.3, 1e11)
    high = RooflinePoint("r", 9.0, 5e12)
    assert low.limited_by(rl) == "memory"
    assert high.limited_by(rl) == "compute"


def test_efficiency(rl):
    p = RooflinePoint("x", 1.0, 1381e9 / 2)
    assert rl.efficiency(p) == pytest.approx(0.5)


def test_series(rl):
    s = rl.series([0.5, 5.0])
    assert len(s) == 2
    assert s[0][1] == pytest.approx(0.5 * 1381e9)


def test_no_secondary_roof():
    r = Roofline("x", 100.0, 1000.0)
    assert r.attainable(1e9) == 1000.0


def test_render_ascii_contains_points(rl):
    pts = [RooflinePoint("B", 0.3, 1.6e11), RooflinePoint("R", 8.9, 2.5e12)]
    art = render_ascii(rl, pts)
    assert "B" in art and "R" in art and "knee" in art


# -- energy -----------------------------------------------------------------------


def test_energy_joules():
    e = EnergyEstimate("gpu", "RSPR", runtime_ms=51.0, power_watts=421.0)
    assert e.joules == pytest.approx(21.5, abs=0.1)  # the paper's 21 J


def test_paper_energy_numbers():
    """Feeding the paper's runtimes must reproduce its Section VI."""
    out = energy_comparison(
        gpu_runtimes_ms={"B": 3773.0, "RSPR": 51.0},
        cpu_runtimes_ms={"B": 785.0, "RSP": 122.0},
    )
    assert out["gpu"]["RSPR"] == pytest.approx(21.5, abs=0.1)
    assert out["cpu"]["RSP"] == pytest.approx(83.3, abs=0.2)
    assert out["ratios"]["best_cpu_over_best_gpu"] == pytest.approx(
        3.9, abs=0.2
    )
    # at the baseline the GPU is the *less* efficient option
    assert out["ratios"]["baseline_cpu_over_baseline_gpu"] < 1.0


def test_measured_energy_ratio_shape(study, gpu_table, cpu_table):
    out = study.energy(list(gpu_table.values()), list(cpu_table.values()))
    assert 2.0 < out["ratios"]["best_cpu_over_best_gpu"] < 8.0
    assert out["ratios"]["baseline_cpu_over_baseline_gpu"] < 1.0
