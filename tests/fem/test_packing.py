"""Element packing: group shapes, padding, lane order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import ElementPacking, box_tet_mesh


def test_group_count(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=16)
    assert p.ngroups == -(-medium_mesh.nelem // 16)
    assert len(p) == p.ngroups


def test_padding(small_mesh):
    # 162 elements, vector_dim 100 -> 2 groups, 38 padding lanes
    p = ElementPacking(small_mesh, vector_dim=100)
    assert p.ngroups == 2
    last = p.group(p.ngroups - 1)
    assert last.nactive == small_mesh.nelem - 100
    assert (~last.active).sum() == 2 * 100 - small_mesh.nelem
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


def test_invalid_vector_dim(medium_mesh):
    with pytest.raises(ValueError, match="vector_dim"):
        ElementPacking(medium_mesh, 0)


def test_group_index_bounds(medium_mesh):
    p = ElementPacking(medium_mesh, vector_dim=16)
    with pytest.raises(IndexError):
        p.group(p.ngroups)


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
