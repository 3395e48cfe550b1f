"""Batched multi-scenario assembly benchmark: one replay, ``S`` scenarios.

A :class:`~repro.core.batch.ScenarioBatch` assembles ``S`` independent
parameter sets (here: per-scenario body forcing) through **one** tape
replay / generated kernel with ``(S, lanes)``-shaped buffers, paying
Python dispatch, gather indices and the scatter pattern once per batch
instead of once per scenario.  This bench measures scenarios/second for
``S in {4, 16, 64}`` in both ``compiled`` and ``codegen`` modes against
the serial per-scenario loop (``S = 1`` is the serial kernel itself --
one program, one bound kernel -- so that cell would time a kernel
against itself), asserts per-scenario **bitwise**
identity first, and feeds rows (tagged ``"benchmark": "batch"`` with an
explicit ``"scenarios"`` key) into ``BENCH_variants.json`` +
``BENCH_history.jsonl`` -- ``check_regression.py`` keys on
``scenarios``, so ``S=4`` and ``S=16`` rows never gate each other.

The acceptance floor sits where the win structurally lives: the
dispatch-bound B and P variants must clear >= 3x over the serial loop at
``S=16``; the restructured RS/RSP/RSPR variants are already near the
bandwidth roofline (batching amortizes dispatch they barely pay), so
they are only guarded against regression (>= 0.85x parity).

Runnable standalone (used by the CI batch smoke step)::

    PYTHONPATH=src python benchmarks/bench_batch.py --smoke
"""

import argparse
import pathlib
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import ScenarioBatch, UnifiedAssembler, variant_names  # noqa: E402
from repro.core.codegen import generated_kernel  # noqa: E402
from repro.fem import box_tet_mesh  # noqa: E402
from repro.physics import AssemblyParams  # noqa: E402

VECTOR_DIM = 1024
REPEATS = 5
SERIAL_REPEATS = 3
SIZES = (4, 16, 64)
MODES = ("compiled", "codegen")
#: variants whose serial loop is dispatch-bound -- the batching win
DISPATCH_BOUND = ("B", "P")
#: the tentpole acceptance floor at S=16 for dispatch-bound variants
BATCH_FLOOR = 3.0
#: regression guard for the bandwidth-bound restructured variants
PARITY_FLOOR = 0.85


def forcing_batch(size):
    """``S`` scenarios varying only the body forcing.

    Forcing is the one batchable column every variant accepts: the
    specialized RS/RSP/RSPR variants bake density/viscosity/vreman_c
    into the kernel, so those columns must stay uniform.
    """
    return ScenarioBatch([
        AssemblyParams(body_force=(0.0, 0.0, 0.1 * (s + 1)))
        for s in range(size)
    ])


def _best_of(fn, repeats=REPEATS):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return min(walls)


def batch_row(mesh, velocity, variant, mode, size, vector_dim=VECTOR_DIM,
              repeats=REPEATS, tracer=None):
    """Time one (variant, mode, S) cell; asserts bitwise identity first."""
    kwargs = {} if tracer is None else {"tracer": tracer}
    batch = forcing_batch(size)
    asm = UnifiedAssembler(
        mesh, batch[0], vector_dim=vector_dim, mode=mode, **kwargs
    )
    rhs = asm.run_batch(variant, batch, velocity)  # warms the batched path
    serial = [
        UnifiedAssembler(
            mesh, batch[s], vector_dim=vector_dim, mode=mode, **kwargs
        )
        for s in range(size)
    ]
    for s in range(size):  # bitwise identity; also warms the serial loop
        ref = serial[s].assemble(variant, velocity)
        assert np.array_equal(rhs[s], ref), (
            f"{variant}/{mode} S={size}: scenario {s} not bit-identical"
        )

    t_batch = _best_of(
        lambda: asm.run_batch(variant, batch, velocity), repeats
    )
    t_serial = _best_of(
        lambda: [a.assemble(variant, velocity) for a in serial],
        SERIAL_REPEATS,
    )
    return {
        "benchmark": "batch",
        "variant": variant,
        "mode": mode,
        "nelem": int(mesh.nelem),
        "vector_dim": int(vector_dim),
        "scenarios": int(size),
        "wall_ms": t_batch * 1e3,
        "serial_loop_ms": t_serial * 1e3,
        "scenarios_per_s": size / t_batch,
        "speedup_vs_serial": t_serial / t_batch,
        "melem_per_s": mesh.nelem * size / t_batch / 1e6,
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("size", tuple(s for s in SIZES if s != 16))
def test_batch_scaling(
    mode, size, bench_mesh, bench_velocity, bench_tracer, bench_extra, capsys,
):
    """Scenarios/s scaling of the baseline variant over the S sweep.

    S=16 is covered (with floors) by ``test_batch_floor_s16``; skipping
    it here keeps every (variant, mode, S) key single-rowed in the bench
    artifacts.
    """
    row = batch_row(
        bench_mesh, bench_velocity, "B", mode, size, tracer=bench_tracer
    )
    bench_extra.append(row)
    with capsys.disabled():
        print(
            f"\nbatch B/{mode} S={size:>2d}: "
            f"{row['scenarios_per_s']:8.1f} scenarios/s "
            f"({row['wall_ms']:7.1f} ms batched vs "
            f"{row['serial_loop_ms']:7.1f} ms serial loop, "
            f"{row['speedup_vs_serial']:.2f}x)"
        )
    # larger batches amortize more dispatch: the sweep must not lose to
    # the serial loop anywhere beyond noise
    assert row["speedup_vs_serial"] > PARITY_FLOOR


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", variant_names())
def test_batch_floor_s16(
    variant, mode, bench_mesh, bench_velocity, bench_tracer, bench_extra,
    capsys,
):
    """The tentpole floor: >=3x at S=16 for dispatch-bound B/P; parity
    for the bandwidth-bound restructured variants."""
    row = batch_row(
        bench_mesh, bench_velocity, variant, mode, 16, tracer=bench_tracer
    )
    bench_extra.append(row)
    with capsys.disabled():
        print(
            f"\nbatch {variant:>5s}/{mode} S=16: "
            f"{row['scenarios_per_s']:8.1f} scenarios/s "
            f"({row['speedup_vs_serial']:.2f}x vs serial loop)"
        )
    if variant in DISPATCH_BOUND:
        assert row["speedup_vs_serial"] >= BATCH_FLOOR, (
            f"{variant}/{mode}: batched S=16 speedup "
            f"{row['speedup_vs_serial']:.2f}x below the {BATCH_FLOOR}x floor"
        )
    else:
        assert row["speedup_vs_serial"] > PARITY_FLOOR


def main(argv=None):
    """Standalone smoke: S=4 bitwise identity on a small mesh + one row."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small mesh, bitwise checks + one bench row (CI smoke step)",
    )
    args = parser.parse_args(argv)
    smoke = args.smoke
    mesh = box_tet_mesh(4, 4, 4) if smoke else box_tet_mesh(12, 12, 16)
    vd = 64 if smoke else VECTOR_DIM
    size = 4 if smoke else 16
    rng = np.random.default_rng(0)
    velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
    batch = forcing_batch(size)
    failed = False
    for mode in MODES:
        for variant in variant_names():
            asm = UnifiedAssembler(mesh, batch[0], vector_dim=vd, mode=mode)
            rhs = asm.run_batch(variant, batch, velocity)
            same = all(
                np.array_equal(
                    rhs[s],
                    UnifiedAssembler(
                        mesh, batch[s], vector_dim=vd, mode=mode
                    ).assemble(variant, velocity),
                )
                for s in range(size)
            )
            native = ""
            if mode == "codegen":
                # the C form of the batched kernel: build now, adopt on the
                # next sweep, serve the ones after -- scattering immediately
                # when one call covers the mesh, deferred under threads
                kern = generated_kernel(asm.plan, variant, vd, batch=batch)
                native = ", native no compiler"
                if kern.build_native(wait=True):
                    asm.run_batch(variant, batch, velocity)
                    ok = kern._native.state == "adopted"
                    threaded = UnifiedAssembler(
                        mesh, batch[0], vector_dim=vd, mode=mode,
                        executor="threads", num_threads=2, chunk_groups=1,
                    )
                    for runner, scatter in ((asm, "fused"), (threaded, "deferred")):
                        served = runner.run_batch(variant, batch, velocity)
                        ok &= np.array_equal(served, rhs) and kern._scatter == scatter
                    native = ", native " + (
                        "OK" if ok
                        else f"MISMATCH ({kern._native.state}, {kern._scatter})"
                    )
                    same &= ok
            print(
                f"batch {variant:>5s}/{mode} S={size}: bitwise "
                f"{'OK' if same else 'MISMATCH'}{native}"
            )
            failed |= not same
    if not failed:
        row = batch_row(
            mesh, velocity, "B", "compiled", size, vector_dim=vd, repeats=3
        )
        print(
            f"batch B/compiled S={size}: {row['scenarios_per_s']:.1f} "
            f"scenarios/s ({row['speedup_vs_serial']:.2f}x vs serial loop)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
