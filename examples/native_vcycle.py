#!/usr/bin/env python3
"""The pressure iteration's products, measured: the AMG V-cycle and the level-0
product in their scipy form and in their C form (rows as lanes for a vector,
columns as lanes for a block), byte-equal, with the per-level budget of one
one-column cycle -- which product of which level the time goes to -- and the
step's derivative products (nodal and elemental divergence, lumped gradient)
as one C pass over the three axes against the per-axis scipy form.  No level of
the hierarchy stores rounding residue (an entry at or below ``RESIDUE_TOL``).

Run:  python examples/native_vcycle.py [n]      (mesh n^3 cells, default 24)
"""
import sys
import time

import numpy as np

from repro.core import native
from repro.fem import box_tet_mesh, get_plan
from repro.physics.pressure import RESIDUE_TOL, PressureSolver
from repro.solvers.cg import VectorPhase
from repro.solvers.native import SOURCE, SYMBOLS

REPEATS = 40
n = int(sys.argv[1]) if len(sys.argv) > 1 else 24
proc = native.build(SOURCE)
if proc is None or proc.wait() != 0 or native.load(SOURCE, SYMBOLS) is None:
    sys.exit("no working C compiler ($CC or cc)")
mesh = box_tet_mesh(n, n, n)
solver = PressureSolver(mesh)  # a cache hit now: loaded at construction
amg, form = solver._amg, solver._amg.native
rng = np.random.default_rng(0)


def best(calls):
    """Best-of-REPEATS milliseconds of each call, interleaved (the host drifts)."""
    out = [1e9] * len(calls)
    for _ in range(REPEATS):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            out[i] = min(out[i], (time.perf_counter() - t0) * 1e3)
    return out


for level in amg.levels:  # the Laplacian is formed without residue; Galerkin keeps none
    a, d = level.a.tocoo(), np.sqrt(level.a.diagonal())
    assert (np.abs(a.data) > RESIDUE_TOL * d[a.row] * d[a.col]).all(), "rounding residue stored"
print(f"{mesh.nnode} nodes; levels (rows, nnz):",
      " ".join(str((lv.a.shape[0], lv.a.nnz)) for lv in amg.levels))
print(f"{'k':>3s} {'cycle scipy':>12s} {'cycle C':>9s} {'ratio':>6s}"
      f" {'product scipy':>14s} {'product C':>10s} {'ratio':>6s}")
for k in (1, 4, 15, 16):
    b = rng.standard_normal((mesh.nnode, k))
    want = amg._cycle(0, b)
    assert amg.vcycle(b).tobytes() == want.tobytes() and form.state == "adopted", form.state
    assert form(b).tobytes() == (solver.laplacian @ b).tobytes()
    cs, cc, ps, pc = best([lambda: amg._cycle(0, b), lambda: amg.vcycle(b),
                           lambda: solver.laplacian @ b, lambda: form(b)])
    print(f"{k:3d} {cs:12.3f} {cc:9.3f} {cs / cc:6.2f} {ps:14.3f} {pc:10.3f} {ps / pc:6.2f}")

# one one-column cycle, level by level: two products with A (residual, post-smoothing
# sweep), one with R, one with P -- as scipy runs them and as the C epilogues do
print(f"{'level':>5s} {'matrix':>6s} {'nnz':>8s} {'per cycle':>9s} {'scipy ms':>9s} {'C ms':>7s}"
      f" {'scipy nnz/ns':>13s} {'C nnz/ns':>9s}")
total = [0.0, 0.0]
for l, (level, words) in enumerate(zip(amg.levels[:-1], form._table)):
    for j, (name, m, uses) in enumerate((("A", level.a, 2), ("P", level.prolongator, 1),
                                         ("R", level.restriction, 1))):
        x, out = rng.standard_normal((m.shape[1], 1)), np.empty((m.shape[0], 1))
        call = (words[7 * j:].ctypes.data, 1, x.ctypes.data, out.ctypes.data)
        scipy_ms, c_ms = best([lambda: m @ x, lambda: form._fns["product"](*call)])
        assert out.tobytes() == (m @ x).tobytes()
        total = [total[0] + uses * scipy_ms, total[1] + uses * c_ms]
        print(f"{l:5d} {name:>6s} {m.nnz:8d} {uses:9d} {scipy_ms:9.4f} {c_ms:7.4f}"
              f" {m.nnz / scipy_ms * 1e-6:13.2f} {m.nnz / c_ms * 1e-6:9.2f}")
print(f"products of one cycle: scipy {total[0]:.3f} ms, C {total[1]:.3f} ms")
# the step's derivative products: divergence u -> (rows, k), gradient p -> (nnode, 3, k)
plan, numpy = get_plan(mesh), VectorPhase()
derivatives, mass = plan.p1_derivatives(), plan.lumped_mass()
print(f"{'product':>20s} {'k':>3s} {'scipy ms':>9s} {'C ms':>7s} {'ratio':>6s}")
for k in (1, 16):
    u = rng.standard_normal((k, mesh.nnode, 3))
    x = u[0].T if k == 1 else np.ascontiguousarray(u.T)  # a vector is read in place
    p = rng.standard_normal((mesh.nnode, k))[:, 0] if k == 1 else rng.standard_normal((mesh.nnode, k))
    for name, ops, v, m in (("nodal divergence", derivatives.nodal, x, None),
                            ("elemental divergence", derivatives.elemental, x, None),
                            ("gradient", derivatives.nodal, p, mass)):
        assert form.axes(ops, v, m).tobytes() == numpy.axes(ops, v, m).tobytes()
        ps, pc = best([lambda: numpy.axes(ops, v, m), lambda: form.axes(ops, v, m)])
        print(f"{name:>20s} {k:3d} {ps:9.3f} {pc:7.3f} {ps / pc:6.2f}")
assert form.state == "adopted" and len(form._families) == 3, form.state
rhs = 0.1 * rng.standard_normal((mesh.nnode, 3))
result = solver.solve(rhs, 1.0, 1e-3)
ms, = best([lambda: solver.solve(rhs, 1.0, 1e-3)])
print(f"PressureSolver.solve: {result.iterations} iterations, {ms:.2f} ms, native={form.state}")
