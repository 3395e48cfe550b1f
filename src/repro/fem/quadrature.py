"""The Gauss quadrature rule of the linear tetrahedron.

The paper's baseline assembly takes the number of Gauss integration points as
a *runtime* function parameter; the specialized variants fix the linear
tetrahedron with its standard 4-point rule at compile time ("the number of
four nodes per element and four Gauss integration points [become] compile
time parameters").  Both paths read :data:`TET04_RULE`.

The rule records its polynomial ``degree`` of exactness, which the test
suite verifies by integrating random polynomials (hypothesis property tests).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["QuadratureRule", "TET04_RULE"]


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


def _tet4_rule() -> QuadratureRule:
    # 4 points, degree 2 -- the rule Alya uses for linear tets and the one
    # the paper's specialization hard-wires.
    a = (5.0 - np.sqrt(5.0)) / 20.0
    b = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
    pts4 = np.full((4, 3), a)
    for i in range(3):
        pts4[i + 1, i] = b
    return QuadratureRule("TET04", pts4, np.full(4, 1.0 / 24.0), degree=2)


#: The 4-point degree-2 TET04 rule (``ngauss == nnode``, Alya's choice).
TET04_RULE = _tet4_rule()
