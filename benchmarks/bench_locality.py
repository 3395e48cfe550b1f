"""Locality bench: SFC/RCM reordering + threaded tape execution.

Measures, on the 14k-element bench mesh, what the locality layer buys
each kernel variant:

* **gather bandwidth** of the velocity gather ``u[connectivity]`` before
  and after ``hilbert+rcm`` reordering (the stage the ordering targets);
* **wall clock** of the compiled assembly in three configurations --
  seed order / serial, reordered / serial, reordered / threaded -- with
  ``ordering`` and ``executor`` recorded on every row so
  ``check_regression.py`` only ever compares like with like;
* **bit consistency**: every reordered-mesh RHS is mapped back through
  the inverse node permutation and must be bitwise identical to the
  seed-order RHS (compiled *and* interpreted), and two threaded runs
  must agree bitwise -- these assertions are unconditional;
* the **ratios** (reordered and reordered+threaded vs seed serial) are
  printed and recorded, not gated: the end-to-end benchmark's traced
  child reports the same comparison as ``parallel.threads_speedup``.

Rows land in ``BENCH_variants.json`` via ``bench_extra`` and in a
dedicated ``BENCH_locality.json`` (same directory rules: the
``REPRO_BENCH_DIR`` env var, else the repo root).

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_locality.py
    PYTHONPATH=src python benchmarks/bench_locality.py --determinism-check
"""

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import UnifiedAssembler  # noqa: E402
from repro.fem import bandwidth_stats, box_tet_mesh  # noqa: E402
from repro.obs import get_registry  # noqa: E402
from repro.physics import AssemblyParams  # noqa: E402

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

VARIANTS = ("B", "P", "RS", "RSP", "RSPR")
STRATEGY = "hilbert+rcm"
VECTOR_DIM = 1024  # the bench suite's tuned CPU group size
REPEATS = 3


def _best_of(fn, repeats=REPEATS):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return min(walls)


def _gather_row(mesh, reordered, velocity, repeats=REPEATS):
    """Gather bandwidth of ``u[connectivity]`` in both numberings."""
    rows = []
    for ordering, m, u in (
        ("none", mesh, velocity),
        (STRATEGY, reordered.mesh, reordered.to_reordered_nodal(velocity)),
    ):
        conn = m.connectivity
        t = _best_of(lambda: u[conn], repeats)
        bytes_moved = m.nelem * 4 * 3 * 8 + conn.nbytes + u.nbytes
        bw_max, bw_mean = bandwidth_stats(m)
        rows.append(
            {
                "benchmark": "locality_gather",
                "variant": "gather",
                "ordering": ordering,
                "nelem": int(m.nelem),
                "gather_ms": t * 1e3,
                "gather_gbps": bytes_moved / t / 1e9,
                "bandwidth_max": bw_max,
                "bandwidth_mean": bw_mean,
            }
        )
    return rows


def locality_rows(mesh, params, velocity, repeats=REPEATS):
    """All BENCH_locality rows; asserts the bitwise contracts throughout."""
    reordered = mesh.reordered(STRATEGY)
    v_new = reordered.to_reordered_nodal(velocity)
    rows = _gather_row(mesh, reordered, velocity, repeats)

    seed_serial = {}
    configs = (
        ("none", "serial", mesh, velocity, None),
        (STRATEGY, "serial", reordered.mesh, v_new, reordered),
        (STRATEGY, "threads", reordered.mesh, v_new, reordered),
    )
    for variant in VARIANTS:
        seed_rhs = None
        for ordering, executor, m, u, res in configs:
            asm = UnifiedAssembler(
                m,
                params,
                vector_dim=VECTOR_DIM,
                mode="compiled",
                executor=executor,
            )
            rhs = asm.assemble(variant, u)
            if seed_rhs is None:
                seed_rhs = rhs
            else:
                mapped = res.to_seed_nodal(rhs)
                assert np.array_equal(mapped, seed_rhs), (
                    f"{variant} {ordering}/{executor}: mapped RHS is not "
                    "bitwise identical to the seed assembly"
                )
            if executor == "threads":
                assert np.array_equal(rhs, asm.assemble(variant, u)), (
                    f"{variant}: threaded executor is not deterministic"
                )
            wall = _best_of(lambda: asm.assemble(variant, u), repeats)
            if ordering == "none" and executor == "serial":
                seed_serial[variant] = wall
            rows.append(
                {
                    "benchmark": "locality",
                    "variant": variant,
                    "vector_dim": VECTOR_DIM,
                    "mode": "compiled",
                    "ordering": ordering,
                    "executor": executor,
                    "nelem": int(m.nelem),
                    "wall_ms": wall * 1e3,
                    "speedup_vs_seed_serial": seed_serial[variant] / wall,
                    "bitwise_mapped_identical": True,
                }
            )
        # interpreted-mode bit consistency rides along (not timed)
        interp_seed = UnifiedAssembler(
            mesh, params, vector_dim=VECTOR_DIM, mode="interpreted"
        ).assemble(variant, velocity)
        interp_new = UnifiedAssembler(
            reordered.mesh, params, vector_dim=VECTOR_DIM, mode="interpreted"
        ).assemble(variant, v_new)
        assert np.array_equal(
            reordered.to_seed_nodal(interp_new), interp_seed
        ), f"{variant}: interpreted mapped RHS diverged from seed"
    return rows


def write_locality_artifact(rows):
    outdir = pathlib.Path(os.environ.get("REPRO_BENCH_DIR", str(_REPO_ROOT)))
    outdir.mkdir(parents=True, exist_ok=True)
    snap = get_registry().snapshot()
    doc = {
        "schema": "repro-locality/1",
        "strategy": STRATEGY,
        "entries": rows,
        "locality_metrics": {
            k: v for k, v in snap.items() if k.startswith("locality.")
        },
    }
    path = outdir / "BENCH_locality.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="module")
def locality_results(bench_mesh, bench_params, bench_velocity, bench_extra):
    rows = locality_rows(bench_mesh, bench_params, bench_velocity)
    bench_extra.extend(rows)
    yield rows
    path = write_locality_artifact(rows)
    print(f"\nlocality artifact: {path}")


def test_locality_bitwise_and_speedup(locality_results, capsys):
    """Bitwise contracts held during collection; report the ratios."""
    by_cfg = {
        (r["variant"], r["ordering"], r["executor"]): r
        for r in locality_results
        if r["benchmark"] == "locality"
    }
    with capsys.disabled():
        for variant in VARIANTS:
            seed = by_cfg[(variant, "none", "serial")]
            reord = by_cfg[(variant, STRATEGY, "serial")]
            threaded = by_cfg[(variant, STRATEGY, "threads")]
            print(
                f"\nlocality {variant:>4s}: seed {seed['wall_ms']:7.2f} ms, "
                f"{STRATEGY} {reord['wall_ms']:7.2f} ms "
                f"({reord['speedup_vs_seed_serial']:.2f}x), "
                f"+threads {threaded['wall_ms']:7.2f} ms "
                f"({threaded['speedup_vs_seed_serial']:.2f}x)"
            )
    for row in by_cfg.values():
        assert row["bitwise_mapped_identical"]


def test_locality_gather_bandwidth_reported(locality_results):
    gather = [
        r for r in locality_results if r["benchmark"] == "locality_gather"
    ]
    assert {r["ordering"] for r in gather} == {"none", STRATEGY}
    for row in gather:
        assert row["gather_gbps"] > 0


def determinism_check() -> int:
    """Quick CI gate: two threaded assemblies must agree bitwise."""
    mesh = box_tet_mesh(8, 8, 8)
    params = AssemblyParams(body_force=(0.0, 0.0, 0.1))
    rng = np.random.default_rng(0)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    asm = UnifiedAssembler(
        mesh, params, vector_dim=64, mode="compiled",
        executor="threads", num_threads=4, chunk_groups=4,
    )
    serial = UnifiedAssembler(mesh, params, vector_dim=64, mode="compiled")
    for variant in VARIANTS:
        a = asm.assemble(variant, u)
        b = asm.assemble(variant, u)
        c = serial.assemble(variant, u)
        if not np.array_equal(a, b):
            print(f"FAIL {variant}: two threaded runs differ")
            return 1
        if not np.array_equal(a, c):
            print(f"FAIL {variant}: threaded != serial")
            return 1
    print(f"determinism check OK: {len(VARIANTS)} variants, "
          "threaded == threaded == serial (bitwise)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--determinism-check",
        action="store_true",
        help="only run the fast threaded-determinism gate (CI)",
    )
    args = ap.parse_args(argv)
    if args.determinism_check:
        return determinism_check()
    mesh = box_tet_mesh(12, 12, 16)
    params = AssemblyParams(body_force=(0.0, 0.0, 0.1))
    rng = np.random.default_rng(0)
    velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
    rows = locality_rows(mesh, params, velocity)
    path = write_locality_artifact(rows)
    for row in rows:
        if row["benchmark"] == "locality":
            print(
                f"{row['variant']:>4s} {row['ordering']:>11s} "
                f"{row['executor']:>7s} {row['wall_ms']:8.2f} ms "
                f"({row['speedup_vs_seed_serial']:.2f}x)"
            )
        else:
            print(
                f"gather [{row['ordering']:>11s}] "
                f"{row['gather_gbps']:6.1f} GB/s "
                f"(bandwidth max {row['bandwidth_max']}, "
                f"mean {row['bandwidth_mean']:.1f})"
            )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
