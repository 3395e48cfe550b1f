"""Quadrature rules: weight sums, polynomial exactness (hypothesis)."""

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.quadrature import TET04_RULE
from repro.fem.reference import TET04

ALL = pytest.mark.parametrize("rule", [TET04_RULE], ids=["TET04-4"])


@ALL
def test_weights_sum_to_reference_volume(rule):
    assert rule.weights.sum() == pytest.approx(TET04.reference_volume, rel=1e-12)


@ALL
def test_points_inside_reference_element(rule):
    p = rule.points
    assert (p >= -1e-12).all()
    assert (p.sum(axis=1) <= 1 + 1e-12).all()


def _monomial_integral_tet(i, j, k):
    """int_T s^i t^j u^k over the unit tet = i! j! k! / (i+j+k+3)!"""
    return factorial(i) * factorial(j) * factorial(k) / factorial(i + j + k + 3)


@pytest.mark.parametrize("ngauss", [4])
def test_tet_polynomial_exactness(ngauss):
    assert TET04_RULE.ngauss == ngauss
    test_every_rule_is_exact_up_to_its_stated_degree(TET04_RULE)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4))
def test_tet4_rule_integrates_random_quadratics(coeffs):
    """The paper's 4-point rule (degree 2) integrates any quadratic in s."""
    rule = TET04_RULE
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
    """ngauss == nnode (4 for TET04 -- the specialized constants)."""
    assert TET04_RULE.ngauss == TET04.nnode == 4
    assert TET04_RULE.element_name == TET04.name


def test_integrate_helper():
    rule = TET04_RULE
    ones = np.ones(rule.ngauss)
    assert rule.integrate(ones) == pytest.approx(1.0 / 6.0)
    batch = np.ones((5, rule.ngauss))
    assert rule.integrate(batch).shape == (5,)


@ALL
def test_every_rule_is_exact_up_to_its_stated_degree(rule):
    s, t, u = rule.points.T
    for i in range(rule.degree + 1):
        for j in range(rule.degree + 1 - i):
            for k in range(rule.degree + 1 - i - j):
                got = float((s**i * t**j * u**k * rule.weights).sum())
                assert got == pytest.approx(
                    _monomial_integral_tet(i, j, k), rel=1e-10, abs=1e-14
                ), (i, j, k)


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
