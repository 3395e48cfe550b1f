"""Mesh generators.

The paper's benchmark is a 32M-element tetrahedral mesh of the Bolund cliff,
a well-known atmospheric-boundary-layer test hill.  We cannot ship that mesh,
so this module generates synthetic equivalents:

* :func:`box_tet_mesh` -- a structured box split into tetrahedra (the
  work-horse for unit tests and benchmarks; per-element assembly cost is
  mesh-independent for P1 tets, so counters measured here transfer).
* :func:`bolund_like_mesh` -- a terrain-following mesh over a Gaussian
  cliff profile mimicking the Bolund hill geometry (isolated steep hill in a
  flat fetch), used by the LES example.
* :func:`channel_mesh` -- a periodic-channel-shaped box with wall-normal
  grading, used by the channel-flow example.

Each hexahedral cell of the structured grid is split into **six** tetrahedra
using the standard Kuhn (Freudenthal) subdivision, which tiles space
conformally: neighbouring cells share identical face diagonals, so the
resulting mesh is a valid conforming tetrahedralization.  Every row of
:data:`KUHN_TETS` is positively oriented and each generator's map from the
unit cube preserves orientation, so every generated element has a positive
Jacobian.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .mesh import TetMesh

__all__ = [
    "box_tet_mesh",
    "bolund_like_mesh",
    "channel_mesh",
    "structured_grid",
    "KUHN_TETS",
]

#: Kuhn subdivision of the unit cube into 6 positively oriented tets.
#: Corner ids use the (i, j, k)-bit convention: id = i + 2*j + 4*k.
KUHN_TETS = np.array(
    [
        [0, 1, 3, 7],
        [0, 5, 1, 7],
        [0, 3, 2, 7],
        [0, 2, 6, 7],
        [0, 4, 5, 7],
        [0, 6, 4, 7],
    ],
    dtype=np.int64,
)


def structured_grid(
    nx: int, ny: int, nz: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit-cube structured grid: node coords and hex connectivity.

    Parameters
    ----------
    nx, ny, nz:
        Number of *cells* in each direction (nodes are ``n+1`` each way).

    Returns
    -------
    (coords, hexes):
        ``((nx+1)(ny+1)(nz+1), 3)`` nodes on the unit cube and
        ``(nx*ny*nz, 8)`` hexahedral connectivity in bit-corner order.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("grid needs at least one cell per direction")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    zs = np.linspace(0.0, 1.0, nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def nid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    i, j, k = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    corners = np.stack(
        [
            nid(i, j, k),
            nid(i + 1, j, k),
            nid(i, j + 1, k),
            nid(i + 1, j + 1, k),
            nid(i, j, k + 1),
            nid(i + 1, j, k + 1),
            nid(i, j + 1, k + 1),
            nid(i + 1, j + 1, k + 1),
        ],
        axis=1,
    )
    return coords, corners


def box_tet_mesh(
    nx: int,
    ny: int,
    nz: int,
    lengths: Tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> TetMesh:
    """Structured tetrahedral mesh of a box.

    ``nx * ny * nz * 6`` tetrahedra on ``[origin, origin + lengths]``.
    """
    coords, hexes = structured_grid(nx, ny, nz)
    coords = coords * np.asarray(lengths, dtype=np.float64) + np.asarray(
        origin, dtype=np.float64
    )
    return TetMesh(coords, hexes[:, KUHN_TETS].reshape(-1, 4))


def _bolund_height(
    x: np.ndarray, y: np.ndarray, hill_height: float, hill_radius: float
) -> np.ndarray:
    """Synthetic Bolund-like terrain elevation.

    The Bolund hill is a small isolated cliff with a steep westward
    escarpment.  We model it as a Gaussian bump multiplied by a smoothed
    step to create the escarpment on the upwind (negative x) side.
    """
    r2 = (x / hill_radius) ** 2 + (y / hill_radius) ** 2
    bump = np.exp(-r2)
    # Escarpment: steeper drop for x < 0 via a logistic factor.
    edge = 1.0 / (1.0 + np.exp(-8.0 * (x / hill_radius + 0.6)))
    return hill_height * bump * (0.35 + 0.65 * edge)


def bolund_like_mesh(
    nx: int = 24,
    ny: int = 16,
    nz: int = 10,
    domain: Tuple[float, float, float] = (12.0, 8.0, 4.0),
    hill_height: float = 1.2,
    hill_radius: float = 1.5,
    grading: float = 1.6,
) -> TetMesh:
    """Terrain-following tetrahedral mesh over a Bolund-like hill.

    The domain is ``[-Lx/2, Lx/2] x [-Ly/2, Ly/2] x [terrain, Lz]`` with the
    hill centred at the origin.  Vertical node spacing is graded towards the
    ground (``grading > 1`` concentrates points near the terrain, resolving
    the boundary layer as an LES mesh would).
    """
    Lx, Ly, Lz = domain
    coords, hexes = structured_grid(nx, ny, nz)
    x = (coords[:, 0] - 0.5) * Lx
    y = (coords[:, 1] - 0.5) * Ly
    s = coords[:, 2] ** grading  # graded vertical parameter in [0, 1]
    zsurf = _bolund_height(x, y, hill_height, hill_radius)
    z = zsurf + s * (Lz - zsurf)
    return TetMesh(
        np.stack([x, y, z], axis=1), hexes[:, KUHN_TETS].reshape(-1, 4)
    )


def channel_mesh(
    nx: int = 16,
    ny: int = 12,
    nz: int = 12,
    lengths: Tuple[float, float, float] = (6.0, 3.0, 2.0),
    wall_grading: float = 1.8,
) -> TetMesh:
    """Channel-flow box with symmetric wall-normal (z) grading.

    Node spacing is clustered at ``z = 0`` and ``z = Lz`` using a tanh-like
    symmetric grading controlled by ``wall_grading``.
    """
    coords, hexes = structured_grid(nx, ny, nz)
    Lx, Ly, Lz = lengths
    t = coords[:, 2] * 2.0 - 1.0  # [-1, 1]
    z = np.tanh(wall_grading * t) / np.tanh(wall_grading)  # still [-1, 1]
    return TetMesh(
        np.stack(
            [coords[:, 0] * Lx, coords[:, 1] * Ly, (z + 1.0) * 0.5 * Lz],
            axis=1,
        ),
        hexes[:, KUHN_TETS].reshape(-1, 4),
    )


def perturbed_box_mesh(
    nx: int,
    ny: int,
    nz: int,
    amplitude: float = 0.15,
    seed: int = 0,
) -> TetMesh:
    """Box mesh with random interior-node jitter (for robustness tests).

    Boundary nodes are kept fixed; the jitter amplitude is a fraction of the
    local cell size, small enough to preserve positive element volumes.
    """
    mesh = box_tet_mesh(nx, ny, nz)
    rng = np.random.default_rng(seed)
    h = np.array([1.0 / nx, 1.0 / ny, 1.0 / nz])
    interior = np.ones(mesh.nnode, dtype=bool)
    interior[mesh.boundary_nodes()] = False
    jitter = (rng.random((mesh.nnode, 3)) - 0.5) * 2.0 * amplitude * h
    coords = mesh.coords.copy()
    coords[interior] += jitter[interior]
    out = TetMesh(coords, mesh.connectivity.copy(), validate=False)
    if (out.element_volumes() <= 0).any():
        raise ValueError(
            "perturbation amplitude too large: inverted elements produced"
        )
    return out
