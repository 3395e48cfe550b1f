"""Checkpoint hardening: corrupt/truncated ``.npz`` never strands a run.

The contract: :func:`load_checkpoint` turns every decode failure into a
structured :class:`CheckpointError`; :meth:`FractionalStepSolver.checkpoint`
keeps the last two generations; :meth:`restart_latest` skips an unreadable
newest generation (counting ``resilience.checkpoint_fallbacks``) and
restores the previous one bitwise.
"""

import os

import numpy as np
import pytest

from repro.fem.meshgen import box_tet_mesh
from repro.obs.metrics import get_registry
from repro.physics.fractional_step import FractionalStepSolver
from repro.physics.momentum import AssemblyParams
from repro.physics.pressure import PROJECTION_DEPTH
from repro.resilience.checkpoint import (
    CheckpointError,
    checkpoint_name,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)


def _count(name):
    snap = get_registry().snapshot().get(name)
    return 0 if snap is None else snap["value"]


def _solver(tmp_path, **kw):
    mesh = box_tet_mesh(2, 2, 2)
    solver = FractionalStepSolver(
        mesh, AssemblyParams(), checkpoint_dir=str(tmp_path), **kw
    )
    rng = np.random.default_rng(7)
    solver.velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
    solver._apply_bcs(solver.velocity)
    return solver


# ---------------------------------------------------------------------------
# load_checkpoint: every corruption is a structured CheckpointError
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "corruption",
    ["truncate_half", "truncate_tail", "zero_bytes", "garbage", "empty"],
)
def test_corrupt_files_raise_structured_checkpoint_error(tmp_path, corruption):
    solver = _solver(tmp_path)
    path = solver.checkpoint()
    raw = open(path, "rb").read()
    assert len(raw) > 64
    if corruption == "truncate_half":
        open(path, "wb").write(raw[: len(raw) // 2])
    elif corruption == "truncate_tail":
        open(path, "wb").write(raw[:-16])
    elif corruption == "zero_bytes":
        open(path, "wb").write(b"\x00" * len(raw))
    elif corruption == "garbage":
        open(path, "wb").write(b"this is not an npz archive")
    elif corruption == "empty":
        open(path, "wb").write(b"")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert path in str(err.value)


def test_missing_file_and_wrong_mesh_are_checkpoint_errors(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "nope.npz"))
    solver = _solver(tmp_path)
    path = solver.checkpoint()
    state = load_checkpoint(path)
    with pytest.raises(CheckpointError):
        state.validate_against(state.nnode + 1, state.nelem)


def test_save_refuses_non_finite_state(tmp_path):
    solver = _solver(tmp_path)
    solver.velocity[0, 0] = np.nan
    with pytest.raises(CheckpointError):
        solver.checkpoint()
    assert list_checkpoints(str(tmp_path)) == []


# ---------------------------------------------------------------------------
# generations: keep-last-2 pruning
# ---------------------------------------------------------------------------

def test_auto_checkpoints_keep_last_two_generations(tmp_path):
    solver = _solver(tmp_path, checkpoint_every=1)
    solver.run(4, dt=1e-3)
    names = [os.path.basename(p) for p in list_checkpoints(str(tmp_path))]
    assert names == ["checkpoint_000003.npz", "checkpoint_000004.npz"]


def test_prune_keep_validation_and_explicit_paths_untouched(tmp_path):
    with pytest.raises(ValueError):
        prune_checkpoints(str(tmp_path), keep=0)
    solver = _solver(tmp_path)
    explicit = str(tmp_path / "pinned.npz")
    solver.checkpoint(explicit)  # explicit paths are never pruned
    for step in range(3):
        save_checkpoint(
            checkpoint_name(str(tmp_path), step),
            solver.velocity, solver.pressure_field, 0.0, step,
            solver.mesh.nnode, solver.mesh.nelem,
        )
    removed = prune_checkpoints(str(tmp_path), keep=2)
    assert [os.path.basename(p) for p in removed] == ["checkpoint_000000.npz"]
    assert os.path.exists(explicit)


# ---------------------------------------------------------------------------
# restart_latest: fallback to the previous generation
# ---------------------------------------------------------------------------

def test_restart_latest_falls_back_past_truncated_newest(tmp_path):
    solver = _solver(tmp_path, checkpoint_every=1)
    solver.run(3, dt=1e-3)
    good, bad = list_checkpoints(str(tmp_path))[-2:]
    raw = open(bad, "rb").read()
    open(bad, "wb").write(raw[: len(raw) // 3])

    fresh = _solver(tmp_path)
    fallbacks = _count("resilience.checkpoint_fallbacks")
    fresh.restart_latest()
    assert _count("resilience.checkpoint_fallbacks") == fallbacks + 1
    # restored bitwise from the surviving previous generation
    state = load_checkpoint(good)
    assert fresh.step_count == state.step
    assert np.array_equal(fresh.velocity, state.velocity)
    assert np.array_equal(fresh.pressure_field, state.pressure)


def test_restart_latest_raises_when_all_generations_corrupt(tmp_path):
    solver = _solver(tmp_path, checkpoint_every=1)
    solver.run(3, dt=1e-3)
    paths = list_checkpoints(str(tmp_path))
    assert len(paths) == 2
    for path in paths:
        open(path, "wb").write(b"corrupt")
    fresh = _solver(tmp_path)
    fallbacks = _count("resilience.checkpoint_fallbacks")
    with pytest.raises(CheckpointError) as err:
        fresh.restart_latest()
    assert "2 candidates" in str(err.value)
    assert _count("resilience.checkpoint_fallbacks") == fallbacks + 2


def test_restart_latest_empty_directory_is_checkpoint_error(tmp_path):
    fresh = _solver(tmp_path)
    with pytest.raises(CheckpointError):
        fresh.restart_latest(str(tmp_path / "void"))


def test_restarted_run_matches_uninterrupted_run_bitwise(tmp_path):
    full = _solver(tmp_path / "full")
    full.run(4, dt=1e-3)

    half = _solver(tmp_path / "half")
    half.run(2, dt=1e-3)
    half.checkpoint()
    resumed = _solver(tmp_path / "half")
    resumed.restart_latest()
    assert resumed.pressure_basis.size == 2  # the projection basis is carried
    resumed.run(2, dt=1e-3)
    assert np.array_equal(resumed.velocity, full.velocity)
    assert np.array_equal(resumed.pressure_field, full.pressure_field)
    assert resumed.pressure_basis.x.tobytes() == full.pressure_basis.x.tobytes()
    assert resumed.pressure_basis.ax.tobytes() == full.pressure_basis.ax.tobytes()


def test_a_checkpoint_written_before_the_basis_loads_with_an_empty_one(tmp_path):
    """``repro-checkpoint/1`` files without basis arrays still restart: the
    projection starts over, the rest of the state is restored."""
    solver = _solver(tmp_path)
    solver.run(2, dt=1e-3)
    path = str(tmp_path / "old.npz")
    np.savez(path, format=np.array("repro-checkpoint/1"), velocity=solver.velocity,
             pressure=solver.pressure_field, time=np.float64(solver.time),
             step=np.int64(solver.step_count), nnode=np.int64(solver.mesh.nnode),
             nelem=np.int64(solver.mesh.nelem))
    state = load_checkpoint(path)
    assert state.basis.shape == (0, 0) and state.basis_image.shape == (0, 0)
    fresh = _solver(tmp_path).restart(path)
    assert fresh.pressure_basis.size == 0 and fresh.step_count == 2
    assert np.array_equal(fresh.velocity, solver.velocity)
    fresh.run(1, dt=1e-3)
    assert fresh.pressure_basis.size == 1


def test_a_basis_that_does_not_fit_the_mesh_is_a_checkpoint_error(tmp_path):
    solver = _solver(tmp_path)
    solver.run(2, dt=1e-3)
    path = str(tmp_path / "odd.npz")
    save_checkpoint(path, solver.velocity, solver.pressure_field, 0.0, 2, solver.mesh.nnode,
                    solver.mesh.nelem, basis=np.ones((2, 5)), basis_image=np.ones((2, 5)))
    with pytest.raises(CheckpointError, match="basis"):
        _solver(tmp_path).restart(path)
    save_checkpoint(path, solver.velocity, solver.pressure_field, 0.0, 2, solver.mesh.nnode,
                    solver.mesh.nelem, basis=np.ones(5), basis_image=np.ones(5))
    with pytest.raises(CheckpointError, match="basis"):
        _solver(tmp_path).restart(path)
    # more rows than the projection keeps: the first PROJECTION_DEPTH of them
    n = solver.mesh.nnode
    rows = np.arange(1.0, 2 * PROJECTION_DEPTH + 1)[:, None] * np.ones((1, n))
    save_checkpoint(path, solver.velocity, solver.pressure_field, 0.0, 2, n,
                    solver.mesh.nelem, basis=rows, basis_image=-rows)
    restored = _solver(tmp_path).restart(path).pressure_basis
    assert restored.size == PROJECTION_DEPTH
    assert np.array_equal(restored.x, rows[:PROJECTION_DEPTH])
    with pytest.raises(CheckpointError, match="non-finite"):
        save_checkpoint(path, solver.velocity, solver.pressure_field, 0.0, 2,
                        solver.mesh.nnode, solver.mesh.nelem,
                        basis=np.full((1, solver.mesh.nnode), np.nan),
                        basis_image=np.ones((1, solver.mesh.nnode)))
