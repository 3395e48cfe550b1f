"""RCB partitioning and the multiprocess runner's measurement contract."""

import numpy as np
import pytest

from repro.fem import box_tet_mesh
from repro.parallel import MultiprocessRunner, live_segment_names, rcb_partition
from repro.physics import AssemblyParams


# -- partitioning -----------------------------------------------------------------


@pytest.fixture(scope="module")
def mesh():
    return box_tet_mesh(5, 5, 5)


@pytest.mark.parametrize("fn", [rcb_partition])
@pytest.mark.parametrize("nparts", [1, 2, 3, 8])
def test_partition_covers_and_balances(fn, nparts, mesh):
    labels = fn(mesh, nparts)
    assert labels.shape == (mesh.nelem,)
    assert labels.min() >= 0 and labels.max() == nparts - 1
    counts = np.bincount(labels, minlength=nparts)
    assert counts.max() / counts.mean() < 1.4


def test_rcb_deterministic(mesh):
    assert np.array_equal(rcb_partition(mesh, 4), rcb_partition(mesh, 4))


def test_partition_rejects_zero(mesh):
    with pytest.raises(ValueError):
        rcb_partition(mesh, 0)


# -- multiprocess runner baseline -------------------------------------------------


def test_runner_baseline_is_smallest_worker_count():
    """measure() must normalize to the smallest worker count even when it
    is not listed first (the seed silently used the first entry)."""
    mesh = box_tet_mesh(3, 3, 3)
    runner = MultiprocessRunner(mesh, AssemblyParams(), repeats=1)
    points = runner.measure([2, 1])
    assert [p.workers for p in points] == [2, 1]
    assert all(p.baseline_workers == 1 for p in points)
    one = next(p for p in points if p.workers == 1)
    two = next(p for p in points if p.workers == 2)
    assert one.speedup == pytest.approx(1.0)
    assert one.efficiency == pytest.approx(1.0)
    assert two.speedup == pytest.approx(one.wall_seconds / two.wall_seconds)
    assert two.efficiency == pytest.approx(two.speedup / 2.0)


def test_runner_shares_element_arrays_via_shm(telemetry):
    mesh = box_tet_mesh(3, 3, 3)
    _, registry = telemetry
    runner = MultiprocessRunner(mesh, AssemblyParams(), repeats=1)
    points = runner.measure([1, 2])
    assert len(points) == 2
    snap = registry.snapshot()
    # both packed arrays shared once, regardless of how many counts ran
    assert snap["runner.shm_bytes_shared"]["value"] == 2 * mesh.nelem * 4 * 3 * 8
    # the 2-worker point avoided pickling both packs
    assert snap["runner.pickle_bytes_saved"]["value"] == 2 * mesh.nelem * 4 * 3 * 8


@pytest.mark.parametrize("workers, repeats", [
    ([0], 1), ([-1], 1), ([1, 1], 1), ([1.5], 1), ([True], 1),
    ([1], 0), ([1], -2), ([1], 2.5),
])
def test_measure_rejects_what_it_cannot_measure(workers, repeats, telemetry):
    """Worker counts and repeats are integers >= 1, counts without
    duplicates; anything else is a ValueError before any shared memory
    or pool exists."""
    _, registry = telemetry
    before = live_segment_names()
    with pytest.raises(ValueError, match="worker count|repeats"):
        runner = MultiprocessRunner(box_tet_mesh(2, 2, 2), AssemblyParams(), repeats=repeats)
        runner.measure(workers)
    assert live_segment_names() == before
    assert registry.snapshot() == {}
