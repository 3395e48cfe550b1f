"""Gauss quadrature rules for the supported reference elements.

The paper's baseline assembly takes the number of Gauss integration points as
a *runtime* function parameter; the specialized variants fix the linear
tetrahedron with its standard 4-point rule at compile time ("the number of
four nodes per element and four Gauss integration points [become] compile
time parameters").  This module provides the closed quadrature catalogue both
paths draw from.

Every rule records its polynomial ``degree`` of exactness, which the test
suite verifies by integrating random polynomials (hypothesis property tests).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Tuple

import numpy as np

from .reference import ReferenceElement, element

__all__ = ["QuadratureRule", "rule_for", "available_rules", "TET04_RULES"]


@dataclasses.dataclass(frozen=True)
class QuadratureRule:
    """A fixed quadrature rule on a reference element.

    Attributes
    ----------
    element_name:
        Name of the reference element the rule integrates over.
    points:
        ``(ngauss, dim)`` parametric coordinates.
    weights:
        ``(ngauss,)`` weights summing to the reference volume.
    degree:
        Highest total polynomial degree integrated exactly.
    """

    element_name: str
    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def ngauss(self) -> int:
        return self.points.shape[0]

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integrate per-point values: ``sum_g w_g * values[..., g]``."""
        return np.tensordot(np.asarray(values), self.weights, axes=([-1], [0]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuadratureRule({self.element_name}, ngauss={self.ngauss}, "
            f"degree={self.degree})"
        )


def _tet_rules() -> Dict[int, QuadratureRule]:
    rules: Dict[int, QuadratureRule] = {}

    # 1 point, degree 1 (centroid)
    rules[1] = QuadratureRule(
        "TET04",
        np.array([[0.25, 0.25, 0.25]]),
        np.array([1.0 / 6.0]),
        degree=1,
    )

    # 4 points, degree 2 -- the rule Alya uses for linear tets and the one
    # the paper's specialization hard-wires.
    a = (5.0 - np.sqrt(5.0)) / 20.0
    b = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
    pts4 = np.full((4, 3), a)
    for i in range(3):
        pts4[i + 1, i] = b
    rules[4] = QuadratureRule(
        "TET04", pts4, np.full(4, 1.0 / 24.0), degree=2
    )

    # 5 points, degree 3 (centroid + 4 with negative centroid weight)
    pts5 = np.vstack([[0.25, 0.25, 0.25], np.full((4, 3), 1.0 / 6.0)])
    for i in range(3):
        pts5[i + 1, i] = 0.5
    pts5[4] = [1.0 / 6.0] * 3
    w5 = np.array([-4.0 / 30.0, 9.0 / 120.0, 9.0 / 120.0, 9.0 / 120.0, 9.0 / 120.0])
    rules[5] = QuadratureRule("TET04", pts5, w5, degree=3)

    # 11 points, degree 4 (Keast)
    a1 = 0.25
    w1 = -74.0 / 5625.0
    a2, b2 = 11.0 / 14.0, 1.0 / 14.0
    w2 = 343.0 / 45000.0
    a3 = (1.0 + np.sqrt(5.0 / 14.0)) / 4.0
    b3 = (1.0 - np.sqrt(5.0 / 14.0)) / 4.0
    w3 = 28.0 / 1125.0
    pts = [[a1, a1, a1]]
    wts = [w1]
    perms2 = {(a2, b2, b2), (b2, a2, b2), (b2, b2, a2), (b2, b2, b2)}
    # permutations of (a2, b2, b2, b2) barycentric -> drop 4th coordinate
    bary = set(itertools.permutations([a2, b2, b2, b2]))
    for p in sorted(bary):
        pts.append(list(p[:3]))
        wts.append(w2)
    bary3 = set(itertools.permutations([a3, a3, b3, b3]))
    for p in sorted(bary3):
        pts.append(list(p[:3]))
        wts.append(w3)
    del perms2
    rules[11] = QuadratureRule(
        "TET04", np.array(pts), np.array(wts), degree=4
    )
    return rules


def _gauss_legendre_1d(n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _hex_rules() -> Dict[int, QuadratureRule]:
    rules: Dict[int, QuadratureRule] = {}
    for n1d in (1, 2, 3):
        x, w = _gauss_legendre_1d(n1d)
        pts = np.array(list(itertools.product(x, repeat=3)))
        wts = np.array([w[i] * w[j] * w[k] for i, j, k in
                        itertools.product(range(n1d), repeat=3)])
        rules[n1d ** 3] = QuadratureRule(
            "HEX08", pts, wts, degree=2 * n1d - 1
        )
    return rules


_TRI3 = (
    np.array([[1.0 / 6.0, 1.0 / 6.0], [2.0 / 3.0, 1.0 / 6.0],
              [1.0 / 6.0, 2.0 / 3.0]]),
    np.full(3, 1.0 / 6.0),
)


def _pen_rules() -> Dict[int, QuadratureRule]:
    rules: Dict[int, QuadratureRule] = {}
    tri_pts, tri_w = _TRI3
    for n1d in (1, 2):
        x, w = _gauss_legendre_1d(n1d)
        pts = []
        wts = []
        for (tp, tw) in zip(tri_pts, tri_w):
            for (xx, ww) in zip(x, w):
                pts.append([tp[0], tp[1], xx])
                wts.append(tw * ww)
        # the 3-point triangle rule is degree 2; a 1-point Gauss line is
        # degree 1 (it integrates z**2 as 0)
        rules[3 * n1d] = QuadratureRule(
            "PEN06", np.array(pts), np.array(wts), degree=min(2, 2 * n1d - 1)
        )
    return rules


#: 2-point Gauss-Jacobi (alpha=2, beta=0) nodes and weights on [-1, 1]:
#: ``scipy.special.roots_jacobi(2, 2.0, 0.0)`` written out (and checked
#: against it in the tests), so that importing the catalogue does not
#: import ``scipy.special``.
_GAUSS_JACOBI_20 = (
    np.array([-0.754970354689117, 0.08830368802245062]),
    np.array([1.860379610028064, 0.8062870566386026]),
)


def _pyr_rules() -> Dict[int, QuadratureRule]:
    # Conical product rule: Gauss-Legendre in (s, t), Gauss-Jacobi (alpha=2)
    # in u direction to absorb the (1-u)^2 volume factor.
    x, w = _gauss_legendre_1d(2)
    # Gauss-Jacobi with weight (1-u)^2 on [0, 1]: roots of Jacobi
    # P_2^(2,0) mapped from [-1,1].
    xj, wj = _GAUSS_JACOBI_20
    uj = 0.5 * (xj + 1.0)
    # weight: integral of (1-u)^2 over [0,1] is 1/3; roots_jacobi weights
    # integrate f(x)(1-x)^2 on [-1,1]; mapping gives factor (1/2)^3.
    wu = wj * 0.125
    pts = []
    wts = []
    # Volume integral: int_0^1 du (1-u)^2 int_{[-1,1]^2} dxs dxt
    # f(xs (1-u), xt (1-u), u); the (1-u)^2 factor is the Jacobi weight.
    for (u, wuu) in zip(uj, wu):
        scale = 1.0 - u
        for (xs, ws) in zip(x, w):
            for (xt, wt) in zip(x, w):
                pts.append([xs * scale, xt * scale, u])
                wts.append(ws * wt * wuu)
    return {8: QuadratureRule("PYR05", np.array(pts), np.array(wts), degree=2)}


_CATALOGUE: Dict[str, Dict[int, QuadratureRule]] = {
    "TET04": _tet_rules(),
    "HEX08": _hex_rules(),
    "PEN06": _pen_rules(),
    "PYR05": _pyr_rules(),
}

#: Shorthand used throughout the core kernels.
TET04_RULES = _CATALOGUE["TET04"]


def available_rules(element_name: str) -> Tuple[int, ...]:
    """Gauss-point counts available for ``element_name``."""
    return tuple(sorted(_CATALOGUE[element_name.upper()]))


def rule_for(element_name: str, ngauss: int | None = None) -> QuadratureRule:
    """Return a quadrature rule for an element.

    Parameters
    ----------
    element_name:
        Alya-style element name.
    ngauss:
        Number of Gauss points.  ``None`` selects the default rule matching
        Alya's choice for assembly (``ngauss == nnode`` where available,
        which for TET04 is the 4-point degree-2 rule the paper specializes
        to).
    """
    name = element_name.upper()
    try:
        rules = _CATALOGUE[name]
    except KeyError:
        raise KeyError(f"no quadrature catalogue for element {element_name!r}") from None
    if ngauss is None:
        ref: ReferenceElement = element(name)
        ngauss = ref.nnode if ref.nnode in rules else min(rules)
    try:
        return rules[ngauss]
    except KeyError:
        raise KeyError(
            f"{name}: no {ngauss}-point rule; available {sorted(rules)}"
        ) from None
