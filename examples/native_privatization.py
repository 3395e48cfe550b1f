#!/usr/bin/env python3
"""The paper's B -> P column and its second R, measured: every variant's
generated kernel as one C function -- rows privatized into scalars vs. kept
as arena rows (kernel call only), and the whole sweep with each group's local
RHS scattered immediately vs. deferred to a values buffer and one bincount.

Run:  python examples/native_privatization.py [n]      (mesh n^3 cells, default 24)
"""
import sys
import time

import numpy as np

from repro.core import ScenarioBatch, UnifiedAssembler, native, variant_names
from repro.core.codegen import _lower_mesh, generated_kernel
from repro.core.passes import front_end
from repro.core.tape import _record
from repro.fem import box_tet_mesh
from repro.physics import AssemblyParams

VD, REPEATS = 16, 15
n = int(sys.argv[1]) if len(sys.argv) > 1 else 24
mesh, params = box_tet_mesh(n, n, n), AssemblyParams(body_force=(0.05, -0.1, 0.2))
asm = UnifiedAssembler(mesh, params, mode="codegen", vector_dim=VD)
batch = ScenarioBatch([params])  # a solo sweep is the one-scenario batch
u = 0.1 * np.random.default_rng(0).standard_normal((mesh.nnode, 3))
print(f"{mesh.nelem} tets, vector_dim {VD}; best of {REPEATS}, interleaved")
print(f"{'variant':8s} {'rows':>5s} {'private ms':>11s} {'rows ms':>9s} {'private : rows':>15s}"
      f" {'fused ms':>9s} {'deferred ms':>12s} {'deferred : fused':>17s}")
for name in variant_names():
    want = asm.assemble(name, u)  # binds the kernel and refreshes its inputs
    kern = generated_kernel(asm.plan, name, VD, batch)
    front = front_end(_record(name, batch)[1], hoist=True)
    low, arena, best = _lower_mesh(front), np.empty((kern.program.nslab_vec, VD)), {}
    calls = {}
    for storage in ("private", "rows"):
        source = native.emit_c(low, front, vector_dim=VD, storage=storage)
        proc = native.build(source)
        if proc is None or proc.wait() != 0:
            sys.exit("no working C compiler ($CC or cc)")
        # deferred placement: SV is the values buffer, B the arena, no accumulator
        args = (*kern._native._args, kern._values.ctypes.data, arena.ctypes.data, None)
        calls[storage] = (native.load(source, native.KERNEL)["kernel"], args)
    for storage in ("private", "rows") * REPEATS:  # interleaved: the host drifts
        fn, args = calls[storage]
        t0 = time.perf_counter()
        fn(0, kern.ngroups, *args)
        best[storage] = min(best.get(storage, 1.0), time.perf_counter() - t0)
        got = np.zeros_like(want)
        kern._flush(got[None])
        assert got.tobytes() == want.tobytes(), (name, storage)
    assert kern.build_native(wait=True) and asm.assemble(name, u).tobytes() == want.tobytes()
    # the adopted C function as it serves (its group ranges scatter immediately, the
    # flush replays their spill), or one call storing to the values buffer one
    # bincount reduces
    for placement in ("fused", "deferred") * REPEATS:
        t0, kern._scatter = time.perf_counter(), placement
        if placement == "fused":
            kern._native._run(kern)
        else:
            kern._native._fn(0, kern.ngroups, *kern._native._args, kern._values.ctypes.data,
                             None, None)
        got = np.zeros_like(want)
        kern._flush(got[None])
        best[placement] = min(best.get(placement, 1.0), time.perf_counter() - t0)
        assert got.tobytes() == want.tobytes(), (name, placement)
    print(f"{name:8s} {kern.program.nslab_vec:5d} {best['private'] * 1e3:11.2f} "
          f"{best['rows'] * 1e3:9.2f} {best['rows'] / best['private']:14.2f}x"
          f" {best['fused'] * 1e3:9.2f} {best['deferred'] * 1e3:12.2f}"
          f" {best['deferred'] / best['fused']:16.2f}x")
