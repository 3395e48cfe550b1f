"""Mesh generators, boundary classification and the lumped mass."""

import numpy as np
import pytest

from repro.fem import (
    DirichletBC,
    box_tet_mesh,
    channel_mesh,
    classify_box_boundaries,
    get_plan,
    perturbed_box_mesh,
)
from repro.fem.meshgen import structured_grid


# -- generators --------------------------------------------------------------


def test_structured_grid_shapes():
    coords, hexes = structured_grid(2, 3, 4)
    assert coords.shape == (3 * 4 * 5, 3)
    assert hexes.shape == (24, 8)


def test_structured_grid_rejects_empty():
    with pytest.raises(ValueError):
        structured_grid(0, 1, 1)


def test_bolund_mesh_valid(bolund_mesh):
    assert (bolund_mesh.element_volumes() > 0).all()
    # terrain raises the ground: min z above hill is > domain floor at center
    assert bolund_mesh.coords[:, 2].max() == pytest.approx(4.0, rel=1e-6)


def test_bolund_hill_exists(bolund_mesh):
    """The terrain (lowest node per column) rises near the origin."""
    coords = bolund_mesh.coords
    r = np.hypot(coords[:, 0], coords[:, 1])
    near_terrain = coords[r < 1.0][:, 2].min()
    far_terrain = coords[r > 4.0][:, 2].min()
    assert near_terrain > far_terrain + 0.2


def test_channel_mesh_wall_grading():
    m = channel_mesh(nx=4, ny=4, nz=8, wall_grading=2.0)
    z = np.unique(np.round(m.coords[:, 2], 12))
    gaps = np.diff(z)
    # graded: wall spacing much finer than centre spacing
    assert gaps[0] < 0.5 * gaps[len(gaps) // 2]
    assert (m.element_volumes() > 0).all()


def test_perturbed_mesh_keeps_boundary_and_volume():
    base = box_tet_mesh(4, 4, 4)
    pert = perturbed_box_mesh(4, 4, 4, amplitude=0.1, seed=1)
    b = base.boundary_nodes()
    assert np.allclose(base.coords[b], pert.coords[b])
    assert pert.total_volume() == pytest.approx(1.0, rel=1e-12)
    assert (pert.element_volumes() > 0).all()


def test_perturbed_mesh_rejects_huge_amplitude():
    with pytest.raises(ValueError, match="amplitude"):
        perturbed_box_mesh(3, 3, 3, amplitude=5.0)


# -- boundary ----------------------------------------------------------------


def test_classify_box_boundaries(medium_mesh):
    regions = classify_box_boundaries(medium_mesh)
    n = 7
    for side in ("xmin", "xmax", "ymin", "ymax", "zmax", "zmin"):
        assert regions[side].nfaces > 0, side
    # total faces = boundary faces
    total = sum(r.nfaces for r in regions.values())
    assert total == medium_mesh.boundary_faces().shape[0]
    # a face belongs to exactly one region (sum of uniques consistent)
    assert regions["xmin"].nodes.min() >= 0
    assert len(regions["zmax"].nodes) == n * n


def test_classify_terrain_ground(bolund_mesh):
    regions = classify_box_boundaries(bolund_mesh)
    # terrain-following ground faces all end up in zmin
    assert regions["zmin"].nfaces > 0
    assert regions["other"].nfaces == 0


def test_dirichlet_constant(medium_mesh):
    regions = classify_box_boundaries(medium_mesh)
    bc = DirichletBC(regions["xmin"].nodes, np.array([1.0, 2.0, 3.0]))
    field = np.zeros((medium_mesh.nnode, 3))
    bc.apply(field, medium_mesh.coords)
    assert np.allclose(field[regions["xmin"].nodes], [1.0, 2.0, 3.0])
    untouched = np.setdiff1d(
        np.arange(medium_mesh.nnode), regions["xmin"].nodes
    )
    assert np.allclose(field[untouched], 0.0)


def test_dirichlet_callable_and_components(medium_mesh):
    regions = classify_box_boundaries(medium_mesh)
    nodes = regions["zmax"].nodes
    bc = DirichletBC(nodes, lambda c: np.column_stack(
        [c[:, 0], c[:, 1], c[:, 2]]
    ), components=(2,))
    field = np.ones((medium_mesh.nnode, 3))
    bc.apply(field, medium_mesh.coords)
    assert np.allclose(field[nodes, 2], medium_mesh.coords[nodes, 2])
    assert np.allclose(field[nodes, 0], 1.0)  # untouched component


# -- lumped mass -------------------------------------------------------------


def test_lumped_mass_sums_to_volume(medium_mesh):
    mass = get_plan(medium_mesh).lumped_mass()
    assert mass.sum() == pytest.approx(medium_mesh.total_volume())
    assert (mass > 0).all()


def test_lumped_mass_jittered(jittered_mesh):
    mass = get_plan(jittered_mesh).lumped_mass()
    assert mass.sum() == pytest.approx(jittered_mesh.total_volume())
