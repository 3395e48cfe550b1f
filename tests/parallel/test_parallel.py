"""RCB partitioning."""

import numpy as np
import pytest

from repro.fem import box_tet_mesh
from repro.parallel import rcb_partition


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

