"""Variant **B** (baseline) and **P** (baseline + privatization).

This kernel reproduces the structure of Alya's original vectorized momentum
RHS assembly, the starting point of the paper:

* **generic element machinery**: node and Gauss counts are runtime values,
  the isoparametric geometry (Jacobian, inverse, Cartesian derivatives) is
  evaluated *at every Gauss point* even though it is constant for linear
  tetrahedra;
* **runtime options**: material law, turbulence model and convective form
  are read as input flags and dispatched with branches;
* **elemental matrices**: the kernel first builds the full
  ``elauu(pnode, pnode, ndime, ndime)`` elemental matrix -- "a hold over
  from a previous time when Alya still used implicit time-stepping" -- and
  then multiplies it by the element velocities to obtain the elemental RHS;
* **every intermediate is an array**: each assignment round-trips through a
  named temporary (the paper counts 430 double-precision values in 32
  arrays; this kernel declares ~450 values in 18 arrays, inventoried by the
  tracing backend).

Variant ``P`` is *identical source code* with the temporaries declared
``PRIVATE`` instead of ``GLOBAL_TEMP``.  Because the baseline's loop bounds
are runtime values, the private arrays are **not** register-mappable
(``static=False``): they land in GPU local memory, exactly the paper's
Table II column P.
"""

from __future__ import annotations

from ..fem.quadrature import TET04_RULE
from ..fem.reference import TET04
from .dsl import Backend, KernelContext
from .storage import Storage

__all__ = ["make_baseline_kernel", "baseline_kernel", "privatized_kernel"]


#: Shape values ``(nnode, ngauss)`` and reference derivatives ``(nnode, 3,
#: ngauss)`` of TET04 at its Gauss points.  In Alya these tables arrive as
#: function arguments (``elmar`` structures) computed once at start-up;
#: reading them is modelled inside the kernel as global-temp traffic after an
#: initial copy-in.
_SHAPES, _DREF = TET04.evaluate(TET04_RULE.points)


def make_baseline_kernel(temp_storage: Storage = Storage.GLOBAL_TEMP):
    """Build the baseline kernel with a chosen temporary storage class.

    ``Storage.GLOBAL_TEMP`` gives variant **B**; ``Storage.PRIVATE`` gives
    variant **P** (the paper's isolated-privatization study).
    """

    def kernel(bk: Backend, ctx: KernelContext) -> None:
        pnode = ctx.nnode_per_element  # runtime value in the baseline
        shapes, dref, weights = _SHAPES, _DREF, TET04_RULE.weights
        pgaus = shapes.shape[1]
        ndime = 3
        st = temp_storage

        # -- runtime option flags (the generality S removes) -------------
        bk.runtime_flag("material_law")
        kfl_turb = bk.runtime_flag("turbulence_model")
        kfl_conv = bk.runtime_flag("convective_form")
        rho_p = bk.runtime_param("density")
        nu_p = bk.runtime_param("viscosity")
        cvre = bk.runtime_param("vreman_c")
        force = [
            bk.runtime_param("force_x"),
            bk.runtime_param("force_y"),
            bk.runtime_param("force_z"),
        ]

        # -- temporary arrays (Alya names) --------------------------------
        elcod = bk.temp("elcod", (pnode, ndime), st, write_before_read=True)
        elvel = bk.temp("elvel", (pnode, ndime), st, write_before_read=True)
        gpsha = bk.temp("gpsha", (pnode, pgaus), st, write_before_read=True)
        gpder = bk.temp("gpder", (pnode, ndime, pgaus), st, write_before_read=True)
        xjacm = bk.temp("xjacm", (pgaus, ndime, ndime), st, write_before_read=True)
        xjaci = bk.temp("xjaci", (pgaus, ndime, ndime), st, write_before_read=True)
        gpdet = bk.temp("gpdet", (pgaus,), st, write_before_read=True)
        gpvol = bk.temp("gpvol", (pgaus,), st, write_before_read=True)
        gpcar = bk.temp("gpcar", (pgaus, pnode, ndime), st, write_before_read=True)
        gpadv = bk.temp("gpadv", (pgaus, ndime), st, write_before_read=True)
        gpgve = bk.temp("gpgve", (pgaus, ndime, ndime), st, write_before_read=True)
        gpden = bk.temp("gpden", (pgaus,), st, write_before_read=True)
        gpvis = bk.temp("gpvis", (pgaus,), st, write_before_read=True)
        gpmut = bk.temp("gpmut", (pgaus,), st, write_before_read=True)
        gpalp = bk.temp("gpalp", (ndime, ndime), st, write_before_read=True)
        gpbet = bk.temp("gpbet", (ndime, ndime), st, write_before_read=True)
        elauu = bk.temp("elauu", (pnode, pnode, ndime, ndime), st, write_before_read=True)
        elrbu = bk.temp("elrbu", (pnode, ndime), st, write_before_read=True)

        # -- gather element data ------------------------------------------
        for a in range(pnode):
            for i in range(ndime):
                bk.store(elcod, (a, i), bk.gather_coord(a, i))
                bk.store(elvel, (a, i), bk.gather_field("velocity", a, i))

        # -- copy in the element tables (Alya: elmar arrays) ---------------
        for a in range(pnode):
            for q in range(pgaus):
                bk.store(gpsha, (a, q), bk.const(shapes[a, q]))
            for i in range(ndime):
                for q in range(pgaus):
                    bk.store(gpder, (a, i, q), bk.const(dref[a, i, q]))

        # -- geometry at EVERY Gauss point ---------------------------------
        # (for tetrahedra the Jacobian is constant; the generic baseline
        # does not know that and recomputes it pgaus times)
        for q in range(pgaus):
            for i in range(ndime):
                for j in range(ndime):
                    acc = bk.const(0.0)
                    for a in range(pnode):
                        acc = acc + bk.load(gpder, (a, i, q)) * bk.load(
                            elcod, (a, j)
                        )
                    bk.store(xjacm, (q, i, j), acc)

            # adjugate / determinant inverse
            j00 = bk.load(xjacm, (q, 0, 0))
            j01 = bk.load(xjacm, (q, 0, 1))
            j02 = bk.load(xjacm, (q, 0, 2))
            j10 = bk.load(xjacm, (q, 1, 0))
            j11 = bk.load(xjacm, (q, 1, 1))
            j12 = bk.load(xjacm, (q, 1, 2))
            j20 = bk.load(xjacm, (q, 2, 0))
            j21 = bk.load(xjacm, (q, 2, 1))
            j22 = bk.load(xjacm, (q, 2, 2))
            c00 = j11 * j22 - j12 * j21
            c01 = j12 * j20 - j10 * j22
            c02 = j10 * j21 - j11 * j20
            det = j00 * c00 + j01 * c01 + j02 * c02
            bk.store(gpdet, (q,), det)
            bk.store(gpvol, (q,), det * weights[q])
            inv_det = 1.0 / det
            # xjaci[j][k] = cof[k][j] / det  (inverse = adj / det)
            bk.store(xjaci, (q, 0, 0), c00 * inv_det)
            bk.store(xjaci, (q, 1, 0), c01 * inv_det)
            bk.store(xjaci, (q, 2, 0), c02 * inv_det)
            bk.store(xjaci, (q, 0, 1), (j02 * j21 - j01 * j22) * inv_det)
            bk.store(xjaci, (q, 1, 1), (j00 * j22 - j02 * j20) * inv_det)
            bk.store(xjaci, (q, 2, 1), (j01 * j20 - j00 * j21) * inv_det)
            bk.store(xjaci, (q, 0, 2), (j01 * j12 - j02 * j11) * inv_det)
            bk.store(xjaci, (q, 1, 2), (j02 * j10 - j00 * j12) * inv_det)
            bk.store(xjaci, (q, 2, 2), (j00 * j11 - j01 * j10) * inv_det)

            # Cartesian derivatives gpcar[q, a, j] = sum_k xjaci[j,k] gpder[a,k,q]
            for a in range(pnode):
                for j in range(ndime):
                    acc = bk.const(0.0)
                    for k in range(ndime):
                        acc = acc + bk.load(xjaci, (q, j, k)) * bk.load(
                            gpder, (a, k, q)
                        )
                    bk.store(gpcar, (q, a, j), acc)

        bk.fence("geometry")

        # -- velocity and gradient at every Gauss point ---------------------
        for q in range(pgaus):
            for i in range(ndime):
                acc = bk.const(0.0)
                for a in range(pnode):
                    acc = acc + bk.load(gpsha, (a, q)) * bk.load(elvel, (a, i))
                bk.store(gpadv, (q, i), acc)
            for i in range(ndime):
                for j in range(ndime):
                    acc = bk.const(0.0)
                    for a in range(pnode):
                        acc = acc + bk.load(gpcar, (q, a, j)) * bk.load(
                            elvel, (a, i)
                        )
                    bk.store(gpgve, (q, i, j), acc)

        bk.fence("interpolation")

        # -- material properties at every Gauss point ------------------------
        # (the material-law flag read above is a counted branch of the
        # trace; the law stores the constant density and viscosity)
        for q in range(pgaus):
            bk.store(gpden, (q,), rho_p)
            bk.store(gpvis, (q,), nu_p)

        # -- turbulent viscosity at every Gauss point -------------------------
        # element scale: delta^2 = V^(2/3) with V = sum_q gpvol[q]
        volel = bk.const(0.0)
        for q in range(pgaus):
            volel = volel + bk.load(gpvol, (q,))
        delta = volel.cbrt()
        delta2 = delta * delta

        for q in range(pgaus):
            if kfl_turb == 0:
                bk.store(gpmut, (q,), bk.const(0.0))
            elif kfl_turb == 1:  # Vreman
                # alpha_ij = du_j/dx_i = gpgve[q, j, i]
                for i in range(ndime):
                    for j in range(ndime):
                        bk.store(gpalp, (i, j), bk.load(gpgve, (q, j, i)))
                aa = bk.const(0.0)
                for i in range(ndime):
                    for j in range(ndime):
                        aij = bk.load(gpalp, (i, j))
                        aa = aa + aij * aij
                for i in range(ndime):
                    for j in range(ndime):
                        acc = bk.const(0.0)
                        for m in range(ndime):
                            acc = acc + bk.load(gpalp, (m, i)) * bk.load(
                                gpalp, (m, j)
                            )
                        bk.store(gpbet, (i, j), delta2 * acc)
                bbeta = (
                    bk.load(gpbet, (0, 0)) * bk.load(gpbet, (1, 1))
                    - bk.load(gpbet, (0, 1)) * bk.load(gpbet, (0, 1))
                    + bk.load(gpbet, (0, 0)) * bk.load(gpbet, (2, 2))
                    - bk.load(gpbet, (0, 2)) * bk.load(gpbet, (0, 2))
                    + bk.load(gpbet, (1, 1)) * bk.load(gpbet, (2, 2))
                    - bk.load(gpbet, (1, 2)) * bk.load(gpbet, (1, 2))
                )
                bbeta = bk.maximum(bbeta, 0.0)
                nut = bk.select_gt(
                    aa,
                    1e-30,
                    cvre * (bbeta / bk.maximum(aa, 1e-30)).sqrt(),
                    0.0,
                )
                bk.store(gpmut, (q,), nut)
            else:  # pragma: no cover - Smagorinsky/WALE via physics module
                # Smagorinsky |S| path (kept runtime-generic)
                ss = bk.const(0.0)
                for i in range(ndime):
                    for j in range(ndime):
                        sij = (
                            bk.load(gpgve, (q, i, j)) + bk.load(gpgve, (q, j, i))
                        ) * 0.5
                        ss = ss + sij * sij
                nut = 0.0289 * delta2 * (ss * 2.0).sqrt()
                bk.store(gpmut, (q,), nut)

        bk.fence("properties")

        # -- elemental matrix elauu -------------------------------------------
        for a in range(pnode):
            for b in range(pnode):
                for i in range(ndime):
                    for j in range(ndime):
                        bk.store(elauu, (a, b, i, j), bk.const(0.0))

        for q in range(pgaus):
            vol_q = bk.load(gpvol, (q,))
            den_q = bk.load(gpden, (q,))
            mu_q = den_q * (bk.load(gpvis, (q,)) + bk.load(gpmut, (q,)))
            for a in range(pnode):
                for b in range(pnode):
                    # convection: rho N_a (u . grad N_b)
                    adv = bk.const(0.0)
                    for k in range(ndime):
                        adv = adv + bk.load(gpadv, (q, k)) * bk.load(
                            gpcar, (q, b, k)
                        )
                    conv_ab = vol_q * den_q * bk.load(gpsha, (a, q)) * adv
                    if kfl_conv == 1:  # skew-symmetric extra term
                        div = (
                            bk.load(gpgve, (q, 0, 0))
                            + bk.load(gpgve, (q, 1, 1))
                            + bk.load(gpgve, (q, 2, 2))
                        )
                        conv_ab = conv_ab + vol_q * den_q * 0.5 * div * bk.load(
                            gpsha, (a, q)
                        ) * bk.load(gpsha, (b, q))
                    # diffusion: mu grad N_a . grad N_b
                    lap = bk.const(0.0)
                    for k in range(ndime):
                        lap = lap + bk.load(gpcar, (q, a, k)) * bk.load(
                            gpcar, (q, b, k)
                        )
                    diag_ab = conv_ab + vol_q * mu_q * lap
                    for i in range(ndime):
                        cur = bk.load(elauu, (a, b, i, i))
                        bk.store(elauu, (a, b, i, i), cur + diag_ab)
                    # transpose-viscous term: mu dN_a/dx_j dN_b/dx_i
                    for i in range(ndime):
                        for j in range(ndime):
                            cur = bk.load(elauu, (a, b, i, j))
                            bk.store(
                                elauu,
                                (a, b, i, j),
                                cur
                                + vol_q
                                * mu_q
                                * bk.load(gpcar, (q, a, j))
                                * bk.load(gpcar, (q, b, i)),
                            )

        bk.fence("elauu")

        # -- elemental RHS: force term, then elrbu -= elauu @ elvel -----------
        for a in range(pnode):
            for i in range(ndime):
                acc = bk.const(0.0)
                for q in range(pgaus):
                    acc = acc + bk.load(gpvol, (q,)) * bk.load(
                        gpden, (q,)
                    ) * bk.load(gpsha, (a, q)) * force[i]
                bk.store(elrbu, (a, i), acc)

        for a in range(pnode):
            for i in range(ndime):
                acc = bk.load(elrbu, (a, i))
                for b in range(pnode):
                    for j in range(ndime):
                        acc = acc - bk.load(elauu, (a, b, i, j)) * bk.load(
                            elvel, (b, j)
                        )
                bk.store(elrbu, (a, i), acc)

        bk.fence("elrbu")

        # -- scatter to the global RHS ----------------------------------------
        for a in range(pnode):
            for i in range(ndime):
                bk.scatter_add_rhs(a, i, bk.load(elrbu, (a, i)))

    return kernel


#: Variant B -- the paper's baseline.
baseline_kernel = make_baseline_kernel(Storage.GLOBAL_TEMP)

#: Variant P -- baseline with privatized (local-memory) temporaries.
privatized_kernel = make_baseline_kernel(Storage.PRIVATE)
