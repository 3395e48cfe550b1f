"""TetMesh container: volumes, topology, validation, read-only arrays."""

import numpy as np
import pytest

from repro.fem import MeshValidationError, TetMesh, box_tet_mesh


UNIT_TET = TetMesh(
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float),
    np.array([[0, 1, 2, 3]]),
)


def test_unit_tet_volume():
    assert UNIT_TET.total_volume() == pytest.approx(1.0 / 6.0)


def test_box_mesh_counts():
    m = box_tet_mesh(3, 4, 5)
    assert m.nelem == 3 * 4 * 5 * 6
    assert m.nnode == 4 * 5 * 6


def test_box_mesh_volume(medium_mesh):
    assert medium_mesh.total_volume() == pytest.approx(1.0, rel=1e-12)


def test_box_mesh_scaled_volume():
    m = box_tet_mesh(2, 2, 2, lengths=(2.0, 3.0, 0.5))
    assert m.total_volume() == pytest.approx(3.0, rel=1e-12)


def test_all_volumes_positive(medium_mesh):
    assert (medium_mesh.element_volumes() > 0).all()


def test_quality_in_unit_interval(medium_mesh):
    q = medium_mesh.element_quality()
    assert (q > 0).all() and (q <= 1.0 + 1e-12).all()


def test_regular_tet_quality_is_one():
    # regular tetrahedron with unit edges
    coords = np.array(
        [
            [0, 0, 0],
            [1, 0, 0],
            [0.5, np.sqrt(3) / 2, 0],
            [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3],
        ]
    )
    m = TetMesh(coords, np.array([[0, 1, 2, 3]]))
    assert m.element_quality()[0] == pytest.approx(1.0, abs=1e-10)


def test_boundary_faces_of_single_tet():
    assert UNIT_TET.boundary_faces().shape == (4, 3)


def test_boundary_faces_of_box(medium_mesh):
    faces = medium_mesh.boundary_faces()
    # 6 sides x (6*6 quads per side) x 2 triangles per quad
    assert faces.shape[0] == 6 * 36 * 2


def test_boundary_nodes_of_box(medium_mesh):
    n = 7  # nodes per side
    expected = n**3 - (n - 2) ** 3
    assert len(medium_mesh.boundary_nodes()) == expected


def test_validation_rejects_out_of_range():
    with pytest.raises(MeshValidationError, match="node ids"):
        TetMesh(UNIT_TET.coords, np.array([[0, 1, 2, 9]]))


def test_validation_rejects_degenerate():
    with pytest.raises(MeshValidationError, match="repeated node"):
        TetMesh(UNIT_TET.coords, np.array([[0, 1, 1, 3]]))


def test_validation_rejects_nan_coords():
    coords = UNIT_TET.coords.copy()
    coords[0, 0] = np.nan
    with pytest.raises(MeshValidationError, match="non-finite"):
        TetMesh(coords, UNIT_TET.connectivity)


def test_validation_rejects_bad_shapes():
    with pytest.raises(MeshValidationError, match="coords"):
        TetMesh(np.zeros((4, 2)), UNIT_TET.connectivity)
    with pytest.raises(MeshValidationError, match="connectivity"):
        TetMesh(UNIT_TET.coords, np.array([[0, 1, 2]]))


def test_statistics(medium_mesh):
    s = medium_mesh.statistics()
    assert s.nnode == medium_mesh.nnode
    assert s.volume == pytest.approx(1.0)
    assert 0 < s.min_quality <= s.mean_quality <= 1.0
    lo, hi = s.bounding_box
    assert np.allclose(lo, 0.0) and np.allclose(hi, 1.0)


def test_mesh_arrays_frozen_outside_mutate(small_mesh):
    with pytest.raises(ValueError):
        small_mesh.connectivity[0, 0] = 0
    with pytest.raises(ValueError):
        small_mesh.coords[0, 0] = 99.0
