"""Variants **RS**, **RSP** and **RSPR**: specialized + restructured kernels.

This is the destination of the paper's optimization journey, one kernel
source parameterized by storage class and scatter policy:

* **S -- specialization** (Section V-B): the element type is hard-wired to
  the linear tetrahedron -- 4 nodes, 4 Gauss points as compile-time
  constants, shape-function values inlined as literals, the geometry
  evaluated *once* per element because the gradients are constant; density
  and viscosity are compile-time constants; the Vreman model is the only
  turbulence model and is evaluated **once per element** instead of per
  Gauss point; no option flags, no branches.
* **R -- restructuring** (Section V-A): no elemental matrices.  Every RHS
  entry is computed directly; intermediate values are produced, used and
  discarded with minimal lifetime.
* **P -- privatization** (Section V-C): with ``Storage.PRIVATE`` the
  temporaries are per-thread scalars with compile-time indices
  (``static=True``), which the machine model maps to registers.
* **second R** (Section V-D, GPU only): with ``immediate_scatter=True`` each
  local RHS entry is scattered to the global RHS the moment it is complete,
  eliminating the ``elrbu`` accumulation array ("the largest part is the
  immediate scattering of local RHS entries to the global matrix instead of
  first computing the entire local RHS").

The numerical result is identical to :func:`repro.physics.momentum.
assemble_momentum_rhs` and to the baseline kernel -- asserted by the
variant-equality tests.
"""

from __future__ import annotations

from ..fem.quadrature import TET04_RULE
from ..fem.reference import TET04
from .dsl import Backend, KernelContext
from .storage import Storage

__all__ = [
    "make_specialized_kernel",
    "rs_kernel",
    "rsp_kernel",
    "rspr_kernel",
    "SPEC_DENSITY",
    "SPEC_VISCOSITY",
    "SPEC_VREMAN_C",
]

# ---------------------------------------------------------------------------
# Compile-time constants of the specialized kernel (Fortran `parameter`s in
# the paper).  The unified driver checks at dispatch time that the runtime
# parameters match these, mirroring how the specialized Alya build is only
# valid for the problem class it was specialized for.
# ---------------------------------------------------------------------------
SPEC_DENSITY = 1.0
SPEC_VISCOSITY = 1.0e-3
SPEC_VREMAN_C = 0.07225

_SHAPES, _ = TET04.evaluate(TET04_RULE.points)  # (4, 4)
_WEIGHTS = TET04_RULE.weights  # (4,)

_PNODE = 4
_PGAUS = 4
_NDIME = 3


def make_specialized_kernel(
    temp_storage: Storage = Storage.GLOBAL_TEMP,
    immediate_scatter: bool = False,
    density: float = SPEC_DENSITY,
    viscosity: float = SPEC_VISCOSITY,
    vreman_c: float = SPEC_VREMAN_C,
):
    """Build a specialized+restructured kernel.

    ``temp_storage=GLOBAL_TEMP`` gives **RS**; ``PRIVATE`` gives **RSP**;
    ``PRIVATE`` + ``immediate_scatter`` gives **RSPR**.  The physical
    constants are compile-time parameters (closure constants), overridable
    only by *building a new kernel* -- that is what specialization means.
    """
    if immediate_scatter and temp_storage is not Storage.PRIVATE:
        raise ValueError("immediate scatter is defined for the private variant")

    rho = float(density)
    nu = float(viscosity)
    cv = float(vreman_c)

    def kernel(bk: Backend, ctx: KernelContext) -> None:
        st = temp_storage

        # Body force stays a runtime quantity (physics, not specialization).
        force = [
            bk.runtime_param("force_x"),
            bk.runtime_param("force_y"),
            bk.runtime_param("force_z"),
        ]

        # -- temporaries: 6-8 small arrays instead of 18 -------------------
        elvel = bk.temp("elvel", (_PNODE, _NDIME), st, static=True, write_before_read=True)
        xjacm = bk.temp("xjacm", (_NDIME, _NDIME), st, static=True, write_before_read=True)
        xjaci = bk.temp("xjaci", (_NDIME, _NDIME), st, static=True, write_before_read=True)
        gpcar = bk.temp("gpcar", (_PNODE, _NDIME), st, static=True, write_before_read=True)
        gpgve = bk.temp("gpgve", (_NDIME, _NDIME), st, static=True, write_before_read=True)
        if not immediate_scatter:
            gpadv = bk.temp("gpadv", (_PGAUS, _NDIME), st, static=True, write_before_read=True)
            elrbu = bk.temp("elrbu", (_PNODE, _NDIME), st, static=True, write_before_read=True)

        # -- gather velocities (coordinates are consumed on the fly) -------
        for a in range(_PNODE):
            for i in range(_NDIME):
                bk.store(elvel, (a, i), bk.gather_field("velocity", a, i))

        # -- geometry ONCE per element --------------------------------------
        # Jacobian rows are edge vectors; coordinates are loaded straight
        # into the expressions (12 mesh loads, no elcod array).
        x0 = [bk.gather_coord(0, j) for j in range(_NDIME)]
        for i in range(_NDIME):
            for j in range(_NDIME):
                bk.store(xjacm, (i, j), bk.gather_coord(i + 1, j) - x0[j])
        del x0

        j00 = bk.load(xjacm, (0, 0))
        j01 = bk.load(xjacm, (0, 1))
        j02 = bk.load(xjacm, (0, 2))
        j10 = bk.load(xjacm, (1, 0))
        j11 = bk.load(xjacm, (1, 1))
        j12 = bk.load(xjacm, (1, 2))
        j20 = bk.load(xjacm, (2, 0))
        j21 = bk.load(xjacm, (2, 1))
        j22 = bk.load(xjacm, (2, 2))
        c00 = j11 * j22 - j12 * j21
        c01 = j12 * j20 - j10 * j22
        c02 = j10 * j21 - j11 * j20
        det = j00 * c00 + j01 * c01 + j02 * c02
        inv_det = 1.0 / det

        bk.store(xjaci, (0, 0), c00 * inv_det)
        bk.store(xjaci, (1, 0), c01 * inv_det)
        bk.store(xjaci, (2, 0), c02 * inv_det)
        bk.store(xjaci, (0, 1), (j02 * j21 - j01 * j22) * inv_det)
        bk.store(xjaci, (1, 1), (j00 * j22 - j02 * j20) * inv_det)
        bk.store(xjaci, (2, 1), (j01 * j20 - j00 * j21) * inv_det)
        bk.store(xjaci, (0, 2), (j01 * j12 - j02 * j11) * inv_det)
        bk.store(xjaci, (1, 2), (j02 * j10 - j00 * j12) * inv_det)
        bk.store(xjaci, (2, 2), (j00 * j11 - j01 * j10) * inv_det)
        del j00, j01, j02, j10, j11, j12, j20, j21, j22, c00, c01, c02

        # dN_a/dx_j = xjaci[j][a-1] for a in 1..3 (inverse columns), and
        # dN_0 = -(dN_1 + dN_2 + dN_3): stored in the single gpcar panel.
        for a in range(1, _PNODE):
            for j in range(_NDIME):
                bk.store(gpcar, (a, j), bk.load(xjaci, (j, a - 1)))
        for j in range(_NDIME):
            bk.store(
                gpcar,
                (0, j),
                -(
                    bk.load(xjaci, (j, 0))
                    + bk.load(xjaci, (j, 1))
                    + bk.load(xjaci, (j, 2))
                ),
            )

        bk.fence("geometry")

        # -- velocity gradient ONCE (constant on the element) ----------------
        for i in range(_NDIME):
            for j in range(_NDIME):
                acc = bk.const(0.0)
                for a in range(_PNODE):
                    acc = acc + bk.load(gpcar, (a, j)) * bk.load(elvel, (a, i))
                bk.store(gpgve, (i, j), acc)

        # -- Vreman ONCE per element, no alpha/beta arrays --------------------
        vol = det * (1.0 / 6.0)
        delta = vol.cbrt()
        delta2 = delta * delta

        aa = bk.const(0.0)
        for i in range(_NDIME):
            for j in range(_NDIME):
                gij = bk.load(gpgve, (i, j))
                aa = aa + gij * gij

        # beta_ij = delta2 sum_m alpha_mi alpha_mj with alpha_mi = g[i][m]:
        # computed entry-by-entry and folded into B_beta immediately.
        def beta(i: int, j: int):
            acc = bk.const(0.0)
            for m in range(_NDIME):
                acc = acc + bk.load(gpgve, (i, m)) * bk.load(gpgve, (j, m))
            return delta2 * acc

        b00 = beta(0, 0)
        b11 = beta(1, 1)
        b22 = beta(2, 2)
        b01 = beta(0, 1)
        b02 = beta(0, 2)
        b12 = beta(1, 2)
        bbeta = (
            b00 * b11 - b01 * b01 + b00 * b22 - b02 * b02 + b11 * b22 - b12 * b12
        )
        del b00, b11, b22, b01, b02, b12
        bbeta = bk.maximum(bbeta, 0.0)
        nut = bk.select_gt(
            aa, 1e-30, cv * (bbeta / bk.maximum(aa, 1e-30)).sqrt(), 0.0
        )
        mu_eff = rho * (nu + nut)
        del aa, bbeta, nut, delta, delta2

        bk.fence("properties")

        if not immediate_scatter:
            # -- velocity at the Gauss points (shape values are literals) ----
            for q in range(_PGAUS):
                for i in range(_NDIME):
                    acc = bk.const(0.0)
                    for a in range(_PNODE):
                        acc = acc + float(_SHAPES[a, q]) * bk.load(
                            elvel, (a, i)
                        )
                    bk.store(gpadv, (q, i), acc)

            # ---------------- RS / RSP path --------------------------------
            for a in range(_PNODE):
                for i in range(_NDIME):
                    bk.store(elrbu, (a, i), bk.const(0.0))

            for q in range(_PGAUS):
                wdet = float(_WEIGHTS[q]) * det
                for i in range(_NDIME):
                    conv = bk.const(0.0)
                    for j in range(_NDIME):
                        conv = conv + bk.load(gpadv, (q, j)) * bk.load(
                            gpgve, (i, j)
                        )
                    contrib = rho * (force[i] - conv)
                    for a in range(_PNODE):
                        cur = bk.load(elrbu, (a, i))
                        bk.store(
                            elrbu,
                            (a, i),
                            cur + wdet * float(_SHAPES[a, q]) * contrib,
                        )

            # viscous term, constant over the element
            for a in range(_PNODE):
                for i in range(_NDIME):
                    acc = bk.const(0.0)
                    for j in range(_NDIME):
                        acc = acc + bk.load(gpcar, (a, j)) * (
                            bk.load(gpgve, (i, j)) + bk.load(gpgve, (j, i))
                        )
                    cur = bk.load(elrbu, (a, i))
                    bk.store(elrbu, (a, i), cur - vol * mu_eff * acc)

            bk.fence("elrbu")

            for a in range(_PNODE):
                for i in range(_NDIME):
                    bk.scatter_add_rhs(a, i, bk.load(elrbu, (a, i)))
        else:
            # ---------------- RSPR path: immediate scatter ------------------
            # Convective contributions per (gauss, i) are finished into a
            # small conv panel; each (a, i) RHS entry is then completed and
            # scattered immediately -- no elemental RHS array exists, and
            # the gpadv panel is dropped by re-gathering the velocity on
            # the fly (trading a few extra global loads for fewer live
            # values, which is why the paper's RSPR shows *more* global
            # loads but *fewer* registers than RSP).
            gpcnv = bk.temp("gpcnv", (_PGAUS, _NDIME), st, static=True, write_before_read=True)
            for q in range(_PGAUS):
                uq = []
                for j in range(_NDIME):
                    acc = bk.const(0.0)
                    for a in range(_PNODE):
                        acc = acc + float(_SHAPES[a, q]) * bk.gather_field(
                            "velocity", a, j
                        )
                    uq.append(acc)
                for i in range(_NDIME):
                    conv = bk.const(0.0)
                    for j in range(_NDIME):
                        conv = conv + uq[j] * bk.load(gpgve, (i, j))
                    bk.store(gpcnv, (q, i), rho * (force[i] - conv))

            for a in range(_PNODE):
                for i in range(_NDIME):
                    acc = bk.const(0.0)
                    for q in range(_PGAUS):
                        acc = acc + (float(_WEIGHTS[q]) * det) * float(
                            _SHAPES[a, q]
                        ) * bk.load(gpcnv, (q, i))
                    vacc = bk.const(0.0)
                    for j in range(_NDIME):
                        vacc = vacc + bk.load(gpcar, (a, j)) * (
                            bk.load(gpgve, (i, j)) + bk.load(gpgve, (j, i))
                        )
                    bk.scatter_add_rhs(a, i, acc - vol * mu_eff * vacc)

    return kernel


#: Variant RS -- restructured + specialized, global temporaries.
rs_kernel = make_specialized_kernel(Storage.GLOBAL_TEMP)

#: Variant RSP -- restructured + specialized + privatized (registers).
rsp_kernel = make_specialized_kernel(Storage.PRIVATE)

#: Variant RSPR -- RSP + immediate scatter (the GPU-only final variant).
rspr_kernel = make_specialized_kernel(Storage.PRIVATE, immediate_scatter=True)
