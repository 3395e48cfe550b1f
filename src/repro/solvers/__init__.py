"""Linear-algebra substrate: CG, smoothed-aggregation AMG (scipy form and,
once it matches to the byte, the C form of :mod:`repro.solvers.native`) and
deflated CG for the pressure-Poisson problem."""

from .cg import SolveResult, SolverError, conjugate_gradient
from .amg import AmgLevel, SmoothedAggregationAMG
from .deflation import deflated_cg, partition_coarse_space

__all__ = [
    "SolveResult", "SolverError", "conjugate_gradient",
    "AmgLevel", "SmoothedAggregationAMG",
    "deflated_cg", "partition_coarse_space",
]
