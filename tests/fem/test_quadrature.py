"""Quadrature rules: weight sums, polynomial exactness (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.quadrature import available_rules, rule_for
from repro.fem.reference import element

ALL = [
    (name, ng) for name in ("TET04", "HEX08", "PEN06", "PYR05")
    for ng in available_rules(name)
]


@pytest.mark.parametrize("name,ngauss", ALL)
def test_weights_sum_to_reference_volume(name, ngauss):
    rule = rule_for(name, ngauss)
    assert rule.weights.sum() == pytest.approx(
        element(name).reference_volume, rel=1e-12
    )


@pytest.mark.parametrize("name,ngauss", ALL)
def test_points_inside_reference_element(name, ngauss):
    rule = rule_for(name, ngauss)
    p = rule.points
    if name == "TET04":
        # allow slightly-outside points for negative-weight rules? no: all in
        assert (p >= -1e-12).all()
        assert (p.sum(axis=1) <= 1 + 1e-12).all()
    elif name == "HEX08":
        assert (np.abs(p) <= 1 + 1e-12).all()


def _monomial_integral_tet(i, j, k):
    """int_T s^i t^j u^k over the unit tet = i! j! k! / (i+j+k+3)!"""
    from math import factorial

    return (
        factorial(i) * factorial(j) * factorial(k)
        / factorial(i + j + k + 3)
    )


@pytest.mark.parametrize("ngauss", available_rules("TET04"))
def test_tet_polynomial_exactness(ngauss):
    rule = rule_for("TET04", ngauss)
    for i in range(rule.degree + 1):
        for j in range(rule.degree + 1 - i):
            for k in range(rule.degree + 1 - i - j):
                vals = (
                    rule.points[:, 0] ** i
                    * rule.points[:, 1] ** j
                    * rule.points[:, 2] ** k
                )
                got = float((vals * rule.weights).sum())
                assert got == pytest.approx(
                    _monomial_integral_tet(i, j, k), rel=1e-10, abs=1e-14
                ), (i, j, k)


@pytest.mark.parametrize("ngauss", available_rules("HEX08"))
def test_hex_polynomial_exactness(ngauss):
    rule = rule_for("HEX08", ngauss)
    for i in range(rule.degree + 1):
        exact = 0.0 if i % 2 else 2.0 / (i + 1)
        for axis in range(3):
            vals = rule.points[:, axis] ** i
            got = float((vals * rule.weights).sum()) / 4.0  # /(2*2) others
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4
    )
)
def test_tet4_rule_integrates_random_quadratics(coeffs):
    """The paper's 4-point rule (degree 2) integrates any quadratic in s."""
    rule = rule_for("TET04", 4)
    a, b, c, d = coeffs
    s, t, u = rule.points.T
    vals = a + b * s + c * s * t + d * u * u
    got = float((vals * rule.weights).sum())
    exact = (
        a * _monomial_integral_tet(0, 0, 0)
        + b * _monomial_integral_tet(1, 0, 0)
        + c * _monomial_integral_tet(1, 1, 0)
        + d * _monomial_integral_tet(0, 0, 2)
    )
    assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_default_rule_matches_alya_choice():
    """ngauss defaults to nnode (4 for TET04 -- the specialized constants)."""
    assert rule_for("TET04").ngauss == 4
    assert rule_for("HEX08").ngauss == 8


def test_integrate_helper():
    rule = rule_for("TET04", 4)
    ones = np.ones(rule.ngauss)
    assert rule.integrate(ones) == pytest.approx(1.0 / 6.0)
    batch = np.ones((5, rule.ngauss))
    assert rule.integrate(batch).shape == (5,)


def test_unknown_rule_raises():
    with pytest.raises(KeyError, match="no 7-point rule"):
        rule_for("TET04", 7)
    with pytest.raises(KeyError, match="catalogue"):
        rule_for("TRI03")


def _line(n):
    """int_{-1}^{1} x^n dx"""
    return 0.0 if n % 2 else 2.0 / (n + 1)


def _monomial_integral(name, i, j, k):
    """Exact ``int s^i t^j u^k`` over the reference element."""
    from math import factorial

    if name == "TET04":
        return _monomial_integral_tet(i, j, k)
    if name == "HEX08":
        return _line(i) * _line(j) * _line(k)
    if name == "PEN06":  # unit triangle x [-1, 1]
        return factorial(i) * factorial(j) / factorial(i + j + 2) * _line(k)
    # PYR05: square [-1, 1]^2 shrinking linearly to the apex u = 1, so
    # int = int_0^1 (1 - u)^(i + j + 2) u^k du * line(i) * line(j)
    return (
        factorial(i + j + 2) * factorial(k) / factorial(i + j + k + 3)
        * _line(i) * _line(j)
    )


@pytest.mark.parametrize("name,ngauss", ALL)
def test_every_rule_is_exact_up_to_its_stated_degree(name, ngauss):
    rule = rule_for(name, ngauss)
    s, t, u = rule.points.T
    for i in range(rule.degree + 1):
        for j in range(rule.degree + 1 - i):
            for k in range(rule.degree + 1 - i - j):
                got = float((s**i * t**j * u**k * rule.weights).sum())
                assert got == pytest.approx(
                    _monomial_integral(name, i, j, k), rel=1e-10, abs=1e-14
                ), (i, j, k)


def test_three_point_prism_rule_is_degree_one():
    """Its Gauss line has one point: ``z**2`` integrates to 0, not 1/3."""
    rule = rule_for("PEN06", 3)
    assert rule.degree == 1
    assert float((rule.points[:, 2] ** 2 * rule.weights).sum()) == 0.0
    assert rule_for("PEN06", 6).degree == 2


def test_gauss_jacobi_literals_match_scipy():
    from scipy.special import roots_jacobi

    from repro.fem.quadrature import _GAUSS_JACOBI_20

    x, w = roots_jacobi(2, 2.0, 0.0)
    np.testing.assert_allclose(_GAUSS_JACOBI_20[0], x, rtol=4e-16, atol=0)
    np.testing.assert_allclose(_GAUSS_JACOBI_20[1], w, rtol=4e-16, atol=0)


def test_import_and_a_codegen_sweep_load_no_scipy_special():
    """``scipy.special`` drags in ``numpy.f2py`` and friends: 0.13 s and
    5 MB of every process, pool worker and server spawn."""
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys, numpy as np, repro\n"
        "from repro.core import UnifiedAssembler\n"
        "from repro.fem import box_tet_mesh\n"
        "from repro.physics import AssemblyParams\n"
        "assert 'scipy.special' not in sys.modules, 'at import'\n"
        "mesh = box_tet_mesh(2, 2, 2)\n"
        "rhs = UnifiedAssembler(mesh, AssemblyParams(), mode='codegen')"
        ".assemble('RSP', np.ones((mesh.nnode, 3)))\n"
        "assert np.isfinite(rhs).all()\n"
        "assert 'scipy.special' not in sys.modules, 'after a sweep'\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
