"""Element packing: group shapes, padding, scatter-add correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import ElementPacking, box_tet_mesh, scatter_add


def test_group_count(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=16)
    assert p.ngroups == -(-medium_mesh.nelem // 16)
    assert len(p) == p.ngroups


def test_padding(small_mesh):
    # 162 elements, vector_dim 100 -> 2 groups, 38 padding lanes
    p = ElementPacking(small_mesh, vector_dim=100)
    assert p.ngroups == 2
    assert p.npad == 2 * 100 - small_mesh.nelem
    last = p.group(p.ngroups - 1)
    assert last.nactive == small_mesh.nelem - 100
    assert not last.active[-1]
    # padding repeats the final real element
    assert (last.element_ids[last.nactive:] == last.element_ids[last.nactive - 1]).all()


def test_groups_cover_all_elements_once(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=37)
    seen = np.concatenate([g.element_ids[g.active] for g in p])
    assert np.array_equal(np.sort(seen), np.arange(medium_mesh.nelem))


def test_group_coords_match_mesh(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=8)
    g = p.group(3)
    assert np.allclose(
        g.coords, medium_mesh.coords[medium_mesh.connectivity[g.element_ids]]
    )


def test_gather_nodal(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=8)
    g = p.group(0)
    field = np.arange(medium_mesh.nnode, dtype=float)
    gathered = g.gather_nodal(field)
    assert gathered.shape == (8, 4)
    assert np.allclose(gathered, g.connectivity.astype(float))


def test_invalid_vector_dim(medium_mesh):
    with pytest.raises(ValueError, match="vector_dim"):
        ElementPacking(medium_mesh, 0)


def test_group_index_bounds(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=16)
    with pytest.raises(IndexError):
        p.group(p.ngroups)


def test_scatter_add_handles_shared_nodes(small_mesh):
    """Lanes sharing nodes must all contribute (no lost updates)."""
    p = ElementPacking(small_mesh, vector_dim=small_mesh.nelem)
    g = p.group(0)
    rhs = np.zeros((small_mesh.nnode, 3))
    elemental = np.ones((g.vector_dim, 4, 3))
    scatter_add(rhs, g, elemental)
    # every node accumulates once per adjacent element
    offsets, _ = small_mesh.node_element_adjacency()
    counts = np.diff(offsets)
    assert np.allclose(rhs[:, 0], counts)


def test_scatter_add_masks_padding(small_mesh):
    p = ElementPacking(small_mesh, vector_dim=100)
    g = p.group(p.ngroups - 1)  # padded group
    rhs = np.zeros((small_mesh.nnode, 3))
    scatter_add(rhs, g, np.ones((100, 4, 3)))
    total = rhs[:, 0].sum()
    assert total == pytest.approx(4 * g.nactive)


def test_scatter_add_rejects_bad_shape(small_mesh):
    p = ElementPacking(small_mesh, vector_dim=8)
    with pytest.raises(ValueError, match="vector_dim"):
        scatter_add(np.zeros((small_mesh.nnode, 3)), p.group(0), np.ones((7, 4, 3)))


@settings(max_examples=20, deadline=None)
@given(vdim=st.integers(1, 200))
def test_any_vector_dim_covers_mesh(vdim):
    mesh = box_tet_mesh(2, 2, 2)
    p = ElementPacking(mesh, vector_dim=vdim)
    seen = np.concatenate([g.element_ids[g.active] for g in p])
    assert np.array_equal(np.sort(seen), np.arange(mesh.nelem))
    assert sum(g.nactive for g in p) == mesh.nelem
    # the one-shot lane order is the groups', concatenated
    ids, active = p.lane_order()
    assert np.array_equal(ids, np.concatenate([g.element_ids for g in p]))
    assert np.array_equal(active, np.concatenate([g.active for g in p]))
