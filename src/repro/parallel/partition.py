"""Recursive coordinate bisection of a mesh's elements.

:func:`rcb_partition` splits the element centroids along their widest
axis, recursively: geometric, deterministic and balanced for any part
count.  The pressure solver's deflation rung builds its coarse space on
it (:meth:`repro.physics.pressure.PressureSolver._coarse_space`).
"""

from __future__ import annotations

import numpy as np

from ..fem.mesh import TetMesh

__all__ = ["rcb_partition"]


def rcb_partition(mesh: TetMesh, nparts: int) -> np.ndarray:
    """Recursive coordinate bisection on element centroids."""
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    centroids = mesh.element_coords().mean(axis=1)
    labels = np.zeros(mesh.nelem, dtype=np.int64)

    def bisect(ids: np.ndarray, parts: int, base: int) -> None:
        if parts == 1 or len(ids) == 0:
            labels[ids] = base
            return
        left_parts = parts // 2
        right_parts = parts - left_parts
        pts = centroids[ids]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        split = int(round(len(ids) * left_parts / parts))
        bisect(ids[order[:split]], left_parts, base)
        bisect(ids[order[split:]], right_parts, base + left_parts)

    bisect(np.arange(mesh.nelem, dtype=np.int64), nparts, 0)
    return labels
