"""Scatter-reduction benchmark: ``np.add.at`` vs the precomputed plan.

The global-RHS reduction is the one assembly stage numpy punishes hardest:
``np.add.at`` is unbuffered and runs an order of magnitude slower than the
gather/compute stages it follows.  :class:`repro.fem.plan.ScatterPlan`
replaces it with a precomputed ``bincount`` reduction (bit-identical).
This bench times both on a >=100k-element mesh and feeds the result into
``BENCH_variants.json`` via the ``bench_extra`` fixture.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_scatter.py
"""

import pathlib
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.fem import box_tet_mesh, get_plan  # noqa: E402

#: 26^3 box -> 105,456 tets: past the acceptance floor of 100k elements.
MESH_SHAPE = (26, 26, 26)
REPEATS = 5


def _best_of(fn, repeats=REPEATS):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return min(walls)


def scatter_timings(mesh, repeats=REPEATS):
    """Time ``np.add.at`` and the plan on one momentum-sized scatter.

    Returns a bench.json-style row; asserts the plan is bitwise equal to
    ``np.add.at`` before timing anything.
    """
    plan = get_plan(mesh)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((mesh.nelem * 4, 3))
    indices = mesh.connectivity.ravel()

    def add_at():
        out = np.zeros((mesh.nnode, 3))
        np.add.at(out, indices, values)
        return out

    reference = add_at()
    assert np.array_equal(reference, plan.scatter.scatter(values))

    t_add_at = _best_of(add_at, repeats)
    t_bincount = _best_of(lambda: plan.scatter.scatter(values), repeats)
    # Effective traffic of one reduction: every contribution is read once
    # with its index, every output row written once.
    bytes_moved = values.nbytes + indices.nbytes + mesh.nnode * 3 * 8

    # Effective gather bandwidth: the velocity gather u[connectivity] is
    # the locality-bound stage SFC/RCM reordering targets -- measure it
    # too so BENCH_locality.json ratios have an absolute anchor.
    u = rng.standard_normal((mesh.nnode, 3))
    conn = mesh.connectivity
    t_gather = _best_of(lambda: u[conn], repeats)
    gather_bytes = mesh.nelem * 4 * 3 * 8 + conn.nbytes + u.nbytes
    return {
        "benchmark": "scatter",
        "nelem": int(mesh.nelem),
        "nnode": int(mesh.nnode),
        "ordering": "none",
        "add_at_ms": t_add_at * 1e3,
        "plan_bincount_ms": t_bincount * 1e3,
        "speedup_bincount": t_add_at / t_bincount,
        "scatter_gbps": bytes_moved / t_bincount / 1e9,
        "gather_ms": t_gather * 1e3,
        "gather_gbps": gather_bytes / t_gather / 1e9,
    }


@pytest.fixture(scope="module")
def scatter_mesh():
    return box_tet_mesh(*MESH_SHAPE)


def test_scatter_plan_beats_add_at(scatter_mesh, bench_extra, capsys):
    """Plan scatter must be bitwise exact and meaningfully faster."""
    row = scatter_timings(scatter_mesh)
    bench_extra.append(row)
    with capsys.disabled():
        print(
            f"\nscatter [{row['nelem']} elems]: "
            f"add.at {row['add_at_ms']:.1f} ms, "
            f"bincount {row['plan_bincount_ms']:.1f} ms "
            f"({row['speedup_bincount']:.1f}x)"
        )
    # 4x measured on a quiet machine; 1.5x floor absorbs CI noise
    assert row["speedup_bincount"] > 1.5


def test_scatter_plan_bitwise_small_meshes(bench_extra):
    """Exactness holds across mesh sizes (duplicate-heavy small boxes)."""
    for shape in ((3, 3, 3), (6, 5, 4)):
        mesh = box_tet_mesh(*shape)
        plan = get_plan(mesh)
        rng = np.random.default_rng(1)
        values = rng.standard_normal((mesh.nelem * 4, 3))
        ref = np.zeros((mesh.nnode, 3))
        np.add.at(ref, mesh.connectivity.ravel(), values)
        assert np.array_equal(ref, plan.scatter.scatter(values))


def main() -> None:
    mesh = box_tet_mesh(*MESH_SHAPE)
    row = scatter_timings(mesh)
    print(f"scatter reduction on {row['nelem']} elements ({row['nnode']} nodes):")
    print(f"  np.add.at       {row['add_at_ms']:8.2f} ms")
    print(
        f"  plan bincount   {row['plan_bincount_ms']:8.2f} ms  "
        f"({row['speedup_bincount']:.1f}x, bit-identical)"
    )
    print(
        f"  bandwidth: scatter {row['scatter_gbps']:.1f} GB/s, "
        f"gather {row['gather_gbps']:.1f} GB/s"
    )


if __name__ == "__main__":
    main()
