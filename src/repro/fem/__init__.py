"""Finite element substrate: reference elements, quadrature, meshes,
geometry, vectorized packing, boundaries and fields."""

from .reference import ELEMENTS, ReferenceElement, element, TET04, HEX08, PEN06, PYR05
from .quadrature import QuadratureRule, rule_for, available_rules
from .mesh import TetMesh, MeshStatistics, MeshValidationError
from .meshgen import box_tet_mesh, bolund_like_mesh, channel_mesh, perturbed_box_mesh
from .geometry import (
    ElementGeometry,
    GeometryError,
    generic_geometry,
    tet4_geometry,
    tet4_gradients,
)
from .packing import ElementGroup, ElementPacking, scatter_add
from .plan import (
    AssemblyPlan,
    GeometryCache,
    ScatterAccumulator,
    ScatterPlan,
    get_plan,
    segment_scatter,
)
from .boundary import BoundaryRegion, DirichletBC, BoundaryClassifier, classify_box_boundaries
from .fields import NodalField, ElementField, lumped_mass

__all__ = [
    "ELEMENTS",
    "ReferenceElement",
    "element",
    "TET04",
    "HEX08",
    "PEN06",
    "PYR05",
    "QuadratureRule",
    "rule_for",
    "available_rules",
    "TetMesh",
    "MeshStatistics",
    "MeshValidationError",
    "box_tet_mesh",
    "bolund_like_mesh",
    "channel_mesh",
    "perturbed_box_mesh",
    "ElementGeometry",
    "GeometryError",
    "generic_geometry",
    "tet4_geometry",
    "tet4_gradients",
    "ElementGroup",
    "ElementPacking",
    "scatter_add",
    "AssemblyPlan",
    "GeometryCache",
    "ScatterAccumulator",
    "ScatterPlan",
    "get_plan",
    "segment_scatter",
    "BoundaryRegion",
    "DirichletBC",
    "BoundaryClassifier",
    "classify_box_boundaries",
    "NodalField",
    "ElementField",
    "lumped_mass",
]
