"""Generated-kernel benchmark: interpreted vs tape replay vs codegen.

The compiled tape (PR 3) still replays op-by-op through numpy ufunc
dispatch; :mod:`repro.core.codegen` lowers the same tape to fused,
exec-compiled Python source with hoisted loop invariants.  This bench
times all three backends per variant on the 14k-element bench mesh at
``VECTOR_DIM=1024``, asserts the outputs are **bit-identical** first,
and feeds per-variant rows (tagged ``"benchmark": "codegen"``) into
``BENCH_variants.json`` via the ``bench_extra`` fixture.

Both back ends lower the *same* value-numbered, scheduled program
(:mod:`repro.core.passes`), so they execute the same arithmetic: what
codegen adds is invariant hoisting and fusion (fewer, longer statements
and fewer stored intermediates).  The bench therefore asserts *parity*
for all five variants -- codegen must not be slower than replay beyond
noise -- and that both back ends report the same live-op count.  (Before
the front end was shared, replay ran 5,618 ops against codegen's 1,945
on B/P and this bench asserted a 1.5x codegen win there; that gap was
duplicate work, not dispatch.)  Until lane buffers were cache-line
aligned and every chunk sized to the L2 (``repro.core.arena``), B and P
read below the floor in most runs and were carried as an expected
failure; they now read 0.95 .. 1.00x in eight of eight readings and are
held to the same floor as the rest.

Runnable standalone (used by the CI codegen smoke step)::

    PYTHONPATH=src python benchmarks/bench_codegen.py --smoke
"""

import argparse
import pathlib
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import UnifiedAssembler, variant_names  # noqa: E402
from repro.core.codegen import generated_kernel  # noqa: E402
from repro.core.tape import record_program  # noqa: E402
from repro.fem import box_tet_mesh, get_plan  # noqa: E402
from repro.physics import AssemblyParams  # noqa: E402

VECTOR_DIM = 1024
REPEATS = 7
#: codegen must not fall behind replay of the same program beyond noise
PARITY_FLOOR = 0.85


def _best_of(fn, repeats=REPEATS):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return min(walls)


def _best_of_interleaved(fns, repeats=REPEATS):
    """Best wall per callable, alternating them within each repeat so a
    slow spell of the host hits every back end alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def codegen_timings(mesh, params, velocity, variant, vector_dim=VECTOR_DIM,
                    repeats=REPEATS, tracer=None):
    """Time one variant three ways; asserts bitwise-equal RHS first."""
    kwargs = {} if tracer is None else {"tracer": tracer}
    interp = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="interpreted", **kwargs
    )
    compiled = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="compiled", **kwargs
    )
    gen = UnifiedAssembler(
        mesh, params, vector_dim=vector_dim, mode="codegen", **kwargs
    )
    ref = interp.assemble(variant, velocity)  # also warms pattern cache
    out = gen.assemble(variant, velocity)  # warms the generated kernel
    assert np.array_equal(ref, out), f"{variant}: codegen RHS not bit-identical"
    assert np.array_equal(compiled.assemble(variant, velocity), out)

    t_interp = _best_of(lambda: interp.assemble(variant, velocity), repeats)
    t_compiled, t_codegen = _best_of_interleaved(
        [
            lambda: compiled.assemble(variant, velocity),
            lambda: gen.assemble(variant, velocity),
        ],
        repeats,
    )
    kp = params.as_kernel_params()
    kern = generated_kernel(get_plan(mesh), variant, vector_dim, kernel_params=kp)
    report = kern.program.report
    replay_report = record_program(variant, kp).report
    return {
        "benchmark": "codegen",
        "variant": variant,
        "mode": "codegen",
        "nelem": int(mesh.nelem),
        "vector_dim": int(vector_dim),
        "interpreted_ms": t_interp * 1e3,
        "compiled_ms": t_compiled * 1e3,
        "codegen_ms": t_codegen * 1e3,
        "wall_ms": t_codegen * 1e3,
        "melem_per_s": mesh.nelem / t_codegen / 1e6,
        "speedup": t_compiled / t_codegen,
        "speedup_vs_interpreted": t_interp / t_codegen,
        "ops_fused": report.fused_ops,
        "ops_hoisted": report.hoisted_ops,
        "buffers_live": report.buffers_live,
        "replay_buffers_live": replay_report.buffers_live,
        "ops_live": report.ops_live,
        "replay_ops_live": replay_report.ops_live,
    }


@pytest.mark.parametrize("variant", variant_names())
def test_codegen_vs_replay(
    variant, bench_mesh, bench_params, bench_velocity, bench_tracer,
    bench_extra, capsys,
):
    """Generated kernels: bit-identical, the same live ops as replay,
    and no slower than replaying them."""
    row = codegen_timings(
        bench_mesh, bench_params, bench_velocity, variant, tracer=bench_tracer
    )
    bench_extra.append(row)
    with capsys.disabled():
        print(
            f"\ncodegen {variant:>5s} [vd={row['vector_dim']}]: "
            f"interpreted {row['interpreted_ms']:7.1f} ms, "
            f"replay {row['compiled_ms']:6.1f} ms, "
            f"codegen {row['codegen_ms']:6.1f} ms "
            f"({row['speedup']:.2f}x vs replay, {row['ops_live']} live ops, "
            f"{row['buffers_live']} vs {row['replay_buffers_live']} buffers)"
        )
    assert row["ops_live"] == row["replay_ops_live"]
    assert row["speedup"] > PARITY_FLOOR


def main(argv=None):
    """Standalone smoke: compile + bitwise-check all five variants."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small mesh, bitwise checks only (CI codegen smoke step)",
    )
    args = parser.parse_args(argv)
    mesh = box_tet_mesh(4, 4, 4) if args.smoke else box_tet_mesh(12, 12, 16)
    vd = 64 if args.smoke else VECTOR_DIM
    params = AssemblyParams(body_force=(0.0, 0.0, 0.1))
    rng = np.random.default_rng(0)
    velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
    failed = False
    for variant in variant_names():
        interp = UnifiedAssembler(mesh, params, vector_dim=vd)
        gen = UnifiedAssembler(mesh, params, vector_dim=vd, mode="codegen")
        same = np.array_equal(
            interp.assemble(variant, velocity),
            gen.assemble(variant, velocity),
        )
        kern = generated_kernel(
            get_plan(mesh), variant, vd,
            kernel_params=params.as_kernel_params(),
        )
        # the C form: build now, adopt on the next sweep, serve the ones
        # after -- scattering immediately when one call covers the mesh,
        # deferred when the threaded executor has several in flight
        native = "no compiler"
        if kern.build_native(wait=True):
            gen.assemble(variant, velocity)
            ok = kern._native.state == "adopted"
            want = interp.assemble(variant, velocity)
            threaded = UnifiedAssembler(
                mesh, params, vector_dim=vd, mode="codegen",
                executor="threads", num_threads=2, chunk_groups=1,
            )
            for asm, scatter in ((gen, "fused"), (threaded, "deferred")):
                served = asm.assemble(variant, velocity)
                ok &= np.array_equal(served, want) and kern._scatter == scatter
            native = "OK" if ok else f"MISMATCH ({kern._native.state}, {kern._scatter})"
            same &= ok
        report = kern.program.report
        print(
            f"codegen {variant:>5s}: bitwise "
            f"{'OK' if same else 'MISMATCH'}, native {native} "
            f"({report.fused_ops} fused, {report.hoisted_ops} hoisted, "
            f"{report.buffers_live} slab rows)"
        )
        failed |= not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
