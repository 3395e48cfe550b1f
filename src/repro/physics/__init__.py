"""Incompressible-LES physics substrate: turbulence models, convective
forms, momentum assembly, pressure projection and the explicit
fractional-step integrator."""

from .turbulence import (
    TurbulenceModel,
    VREMAN_C,
    SMAGORINSKY_CS,
    eddy_viscosity,
    smagorinsky_viscosity,
    vreman_viscosity,
    wale_viscosity,
)
from .convection import ConvectiveForm, convective_term
from .momentum import AssemblyParams, assemble_momentum_rhs, element_rhs

__all__ = [
    "TurbulenceModel", "VREMAN_C", "SMAGORINSKY_CS", "eddy_viscosity",
    "smagorinsky_viscosity", "vreman_viscosity", "wale_viscosity",
    "ConvectiveForm", "convective_term",
    "AssemblyParams", "assemble_momentum_rhs", "element_rhs",
]
