"""Momentum right-hand-side assembly: the reference implementation.

This module defines the *discrete operator* every kernel variant in
:mod:`repro.core` must reproduce, as a straightforward vectorized numpy
implementation over all elements at once.  It is the oracle the
variant-equality tests compare against, and the fast array-level path the
time integrator uses.

Discrete operator (per linear tetrahedron ``e`` with nodes ``a``,
4-point Gauss rule ``q``, velocity ``u``, constant density ``rho`` and
kinematic viscosity ``nu``):

.. math::

    R_{ai} = \\sum_q w_q |J| N_{aq} \\rho (f_i - c_i(u_q, g))
             - V \\mu_{eff} \\sum_j \\partial_j N_a (g_{ij} + g_{ji})

with ``g_ij = du_i/dx_j`` (constant per element), ``c`` the convective term,
``mu_eff = rho (nu + nu_t)`` and ``nu_t`` the Vreman viscosity evaluated
once per element with ``delta^2 = V^{2/3}``.

The assembled global RHS is the sum of elemental contributions (scatter-add
over shared nodes).  Dividing by the lumped mass gives the explicit
acceleration; that step belongs to the time integrator, not the assembly.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..fem.mesh import TetMesh
from ..fem.geometry import tet4_gradients
from ..fem.quadrature import TET04_RULE
from ..fem.reference import TET04
from .convection import ConvectiveForm, convective_term
from .turbulence import TurbulenceModel, VREMAN_C, eddy_viscosity

__all__ = [
    "AssemblyParams",
    "BATCHABLE_PARAMS",
    "FLAG_PARAMS",
    "assemble_momentum_rhs",
    "element_rhs",
    "kernel_rhs_assembler",
]

#: kernel-parameter names that may vary per scenario inside one
#: :class:`~repro.core.batch.ScenarioBatch` -- scalar physics values the
#: batched tape can carry as per-scenario ``(S, 1)`` rows.
BATCHABLE_PARAMS = (
    "density",
    "viscosity",
    "force_x",
    "force_y",
    "force_z",
    "vreman_c",
)

#: kernel-parameter names that select code paths at record time
#: (read through ``runtime_flag`` and folded into Python control flow);
#: these must be uniform across a scenario batch.
FLAG_PARAMS = ("turbulence_model", "convective_form", "material_law")


@dataclasses.dataclass(frozen=True)
class AssemblyParams:
    """Physical and model parameters of the momentum assembly.

    The *specialized* kernels treat ``density``, ``viscosity`` and the model
    selectors as compile-time constants; the baseline reads them as runtime
    values -- both must describe the same physics, which is this object.
    """

    density: float = 1.0
    viscosity: float = 1.0e-3
    body_force: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    turbulence_model: TurbulenceModel = TurbulenceModel.VREMAN
    vreman_c: float = VREMAN_C
    convective_form: ConvectiveForm = ConvectiveForm.ADVECTIVE

    def as_kernel_params(self) -> dict:
        """Flatten to the runtime-parameter dict the DSL kernels read."""
        return {
            "density": self.density,
            "viscosity": self.viscosity,
            "force_x": self.body_force[0],
            "force_y": self.body_force[1],
            "force_z": self.body_force[2],
            "turbulence_model": int(self.turbulence_model),
            "vreman_c": self.vreman_c,
            "convective_form": int(self.convective_form),
            "material_law": 0,
        }


def element_rhs(
    xel: np.ndarray,
    uel: np.ndarray,
    params: AssemblyParams,
    geometry=None,
) -> np.ndarray:
    """Elemental momentum RHS for a batch of tetrahedra.

    Parameters
    ----------
    xel:
        ``(nelem, 4, 3)`` node coordinates.
    uel:
        ``(nelem, 4, 3)`` node velocities.
    params:
        Assembly parameters.
    geometry:
        Optional precomputed :class:`~repro.fem.plan.GeometryCache` for
        exactly these elements; when given, the (time-invariant) P1
        gradients and Jacobians are not re-derived.

    Returns
    -------
    ``(nelem, 4, 3)`` elemental RHS contributions.
    """
    xel = np.asarray(xel, dtype=np.float64)
    uel = np.asarray(uel, dtype=np.float64)
    shapes, _ = TET04.evaluate(TET04_RULE.points)  # (4 nodes, 4 gauss)

    if geometry is None:
        grads, dets = tet4_gradients(xel)  # (nelem, 4, 3), (nelem,)
    else:
        grads, dets = geometry.gradients, geometry.dets
    vol = dets / 6.0

    # velocity gradient g[e, i, j] = sum_a grads[e, a, j] u[e, a, i]
    g = np.einsum("eaj,eai->eij", grads, uel)

    # eddy viscosity, one value per element (delta^2 = V^(2/3); cbrt keeps
    # bit-compatibility with the scalar kernels)
    delta2 = np.cbrt(vol) ** 2
    nu_t = eddy_viscosity(params.turbulence_model, g, delta2)
    mu_eff = params.density * (params.viscosity + nu_t)

    rhs = np.zeros_like(uel)
    f = np.asarray(params.body_force, dtype=np.float64)
    rho = params.density

    # Gauss loop: convective + body-force terms.
    for q in range(TET04_RULE.ngauss):
        n_q = shapes[:, q]  # (4,)
        w_detj = TET04_RULE.weights[q] * dets  # (nelem,)
        u_q = np.einsum("a,eai->ei", n_q, uel)  # (nelem, 3)
        conv = convective_term(params.convective_form, u_q, g)
        contrib = rho * (f[None, :] - conv)  # (nelem, 3)
        rhs += (
            w_detj[:, None, None]
            * n_q[None, :, None]
            * contrib[:, None, :]
        )

    # Viscous term with the full (symmetrized) stress: constant per element.
    sym = g + np.swapaxes(g, -1, -2)
    visc = np.einsum("eaj,eij->eai", grads, sym)
    rhs -= (vol * mu_eff)[:, None, None] * visc
    return rhs


def assemble_momentum_rhs(
    mesh: TetMesh, velocity: np.ndarray, params: AssemblyParams
) -> np.ndarray:
    """Assemble the global momentum RHS ``(nnode, 3)``.

    Uses the mesh's :class:`~repro.fem.plan.AssemblyPlan`: packed
    coordinates and P1 geometry are computed once per mesh lifetime, and
    the scatter runs through the precomputed ``bincount`` plan --
    bit-identical to the seed ``np.add.at`` reduction.
    """
    from ..fem.plan import get_plan

    velocity = np.asarray(velocity, dtype=np.float64)
    if velocity.shape != (mesh.nnode, 3):
        raise ValueError(
            f"velocity must be (nnode, 3) = ({mesh.nnode}, 3), "
            f"got {velocity.shape}"
        )
    plan = get_plan(mesh)
    xel = plan.packed_coords()
    uel = velocity[mesh.connectivity]
    elem = element_rhs(xel, uel, params, geometry=plan.geometry())
    return plan.scatter.scatter(elem.reshape(-1, 3))


def kernel_rhs_assembler(
    mesh: TetMesh,
    params: AssemblyParams,
    variant: str = "RSP",
    mode: str = "compiled",
):
    """Build a time-integrator-compatible RHS assembler over a DSL variant.

    Returns a callable ``assemble(mesh, velocity, params) -> (nnode, 3)``
    with the signature :class:`~repro.physics.fractional_step.FractionalStepSolver`
    expects, backed by a serial :class:`~repro.core.unified.UnifiedAssembler`
    at the paper's CPU group size in the chosen ``mode`` (``"compiled"``
    replays the plan-cached kernel tape -- zero Python-level allocation in
    steady state; ``"codegen"`` runs the plan-cached generated kernel;
    ``"interpreted"`` runs the per-group backend).  The assembler is
    bound to ``mesh`` and ``params`` at construction; calling it with
    different ones is a configuration error and raises.
    """
    from ..core.unified import UnifiedAssembler

    assembler = UnifiedAssembler(mesh, params, mode=mode)
    variant = variant.upper()

    def assemble(m: TetMesh, velocity: np.ndarray, p: AssemblyParams):
        if m is not mesh:
            raise ValueError(
                "kernel_rhs_assembler is bound to the mesh it was built "
                "for; rebuild it for a different mesh"
            )
        if p != params:
            raise ValueError(
                "kernel_rhs_assembler is bound to its construction params "
                f"(got {p!r}, expected {params!r}); rebuild it"
            )
        return assembler.assemble(variant, velocity)

    assemble.assembler = assembler  # introspection / tests
    assemble.variant = variant
    return assemble
