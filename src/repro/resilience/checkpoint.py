"""``.npz`` checkpoints for the fractional-step integrator.

A checkpoint is the *complete* restartable state of a run: velocity,
pressure, the pressure solve's projection basis (rows of solutions and of
their images under the Laplacian), simulated time and step count, plus mesh
fingerprints so a restart against the wrong mesh fails loudly instead of
producing garbage.  A file written before the basis was part of the state
loads with an empty one.
Arrays are stored in full float64, so a restarted run is bitwise identical
to the uninterrupted one (the chaos suite asserts exactly that).

Writes are atomic: the file is written to ``<path>.tmp`` and renamed, so a
run killed mid-checkpoint can never leave a truncated checkpoint behind --
the previous one stays valid.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional

import numpy as np

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_name",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
]

_FORMAT = "repro-checkpoint/1"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or from a different run."""


@dataclasses.dataclass
class CheckpointState:
    """Restartable integrator state."""

    velocity: np.ndarray
    pressure: np.ndarray
    time: float
    step: int
    nnode: int
    nelem: int
    basis: np.ndarray = dataclasses.field(default_factory=lambda: np.empty((0, 0)))
    basis_image: np.ndarray = dataclasses.field(default_factory=lambda: np.empty((0, 0)))

    def validate_against(self, nnode: int, nelem: int) -> None:
        if (self.nnode, self.nelem) != (nnode, nelem):
            raise CheckpointError(
                f"checkpoint is for a mesh with {self.nnode} nodes / "
                f"{self.nelem} elements, not {nnode}/{nelem}"
            )
        if self.velocity.shape != (nnode, 3):
            raise CheckpointError(
                f"checkpoint velocity shape {self.velocity.shape} != ({nnode}, 3)"
            )
        if self.pressure.shape != (nnode,):
            raise CheckpointError(
                f"checkpoint pressure shape {self.pressure.shape} != ({nnode},)"
            )
        if len(self.basis) and (
            self.basis.shape != self.basis_image.shape or self.basis.shape[1:] != (nnode,)
        ):
            raise CheckpointError(
                f"checkpoint basis shapes {self.basis.shape} / "
                f"{self.basis_image.shape} do not fit {nnode} nodes"
            )


def save_checkpoint(
    path: str,
    velocity: np.ndarray,
    pressure: np.ndarray,
    time: float,
    step: int,
    nnode: int,
    nelem: int,
    basis: Optional[np.ndarray] = None,
    basis_image: Optional[np.ndarray] = None,
) -> str:
    """Write one checkpoint atomically; returns ``path``.

    Refuses non-finite state: persisting a poisoned checkpoint would turn
    a recoverable fault into an unrecoverable restart loop.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in (velocity, pressure)]
    arrays += [np.empty((0, 0)) if a is None else np.asarray(a, dtype=np.float64)
               for a in (basis, basis_image)]
    velocity, pressure, basis, basis_image = arrays
    if not all(np.isfinite(a).all() for a in arrays):
        raise CheckpointError(
            f"{path}: refusing to checkpoint non-finite state"
        )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(
            fh,
            format=np.array(_FORMAT),
            velocity=velocity,
            pressure=pressure,
            time=np.float64(time),
            step=np.int64(step),
            nnode=np.int64(nnode),
            nelem=np.int64(nelem),
            basis=basis,
            basis_image=basis_image,
        )
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str) -> CheckpointState:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path!r}")
    try:
        with np.load(path, allow_pickle=False) as data:
            fmt = str(data["format"])
            if fmt != _FORMAT:
                raise CheckpointError(
                    f"{path}: unknown checkpoint format {fmt!r} "
                    f"(want {_FORMAT!r})"
                )
            state = CheckpointState(
                velocity=np.array(data["velocity"], dtype=np.float64),
                pressure=np.array(data["pressure"], dtype=np.float64),
                time=float(data["time"]),
                step=int(data["step"]),
                nnode=int(data["nnode"]),
                nelem=int(data["nelem"]),
            )
            if "basis" in data.files:
                state.basis = np.array(data["basis"], dtype=np.float64)
                state.basis_image = np.array(data["basis_image"], dtype=np.float64)
    except CheckpointError:
        raise
    except Exception as exc:  # truncated / not-an-npz / missing keys
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    if not all(np.isfinite(a).all() for a in (state.velocity, state.pressure, state.basis,
                                              state.basis_image)):
        raise CheckpointError(f"{path}: checkpoint contains non-finite values")
    return state


def checkpoint_name(directory: str, step: int) -> str:
    """Canonical per-step checkpoint path inside ``directory``."""
    return os.path.join(directory, f"checkpoint_{step:06d}.npz")


def list_checkpoints(directory: str) -> List[str]:
    """All checkpoint paths in ``directory``, oldest (lowest step) first."""
    if not os.path.isdir(directory):
        return []
    names = sorted(
        n
        for n in os.listdir(directory)
        if n.startswith("checkpoint_") and n.endswith(".npz")
    )
    return [os.path.join(directory, n) for n in names]


def latest_checkpoint(directory: str) -> Optional[str]:
    """Most recent (highest-step) checkpoint in ``directory``, if any."""
    names = list_checkpoints(directory)
    return names[-1] if names else None


def prune_checkpoints(directory: str, keep: int = 2) -> List[str]:
    """Delete all but the newest ``keep`` checkpoints; returns removed paths.

    Keeping at least two generations means a checkpoint that turns out to
    be unreadable (truncated by a crash mid-``os.replace`` on an exotic
    filesystem, a cosmic-ray bit flip, an operator ``truncate``) still
    leaves a previous generation for
    :meth:`~repro.physics.fractional_step.FractionalStepSolver.restart_latest`
    to fall back to.
    """
    if keep < 1:
        raise ValueError(f"prune_checkpoints: keep must be >= 1, got {keep}")
    doomed = list_checkpoints(directory)[:-keep]
    removed = []
    for path in doomed:
        try:
            os.remove(path)
        except FileNotFoundError:
            continue
        removed.append(path)
    return removed
