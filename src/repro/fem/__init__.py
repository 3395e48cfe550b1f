"""Finite element substrate: the reference tetrahedron and its quadrature,
meshes, geometry, vectorized packing, assembly plans and boundaries."""

from .reference import ReferenceElement, TET04
from .quadrature import QuadratureRule, TET04_RULE
from .mesh import TetMesh, MeshStatistics, MeshValidationError
from .meshgen import box_tet_mesh, bolund_like_mesh, channel_mesh, perturbed_box_mesh
from .geometry import GeometryError, tet4_gradients
from .packing import ElementGroup, ElementPacking
from .plan import (
    AssemblyPlan,
    GeometryCache,
    ScatterAccumulator,
    ScatterPlan,
    get_plan,
    segment_scatter,
)
from .boundary import BoundaryRegion, DirichletBC, BoundaryClassifier, classify_box_boundaries

__all__ = [
    "ReferenceElement",
    "TET04",
    "QuadratureRule",
    "TET04_RULE",
    "TetMesh",
    "MeshStatistics",
    "MeshValidationError",
    "box_tet_mesh",
    "bolund_like_mesh",
    "channel_mesh",
    "perturbed_box_mesh",
    "GeometryError",
    "tet4_gradients",
    "ElementGroup",
    "ElementPacking",
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
]
