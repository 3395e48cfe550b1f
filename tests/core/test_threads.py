"""Threaded tape execution: determinism, chunking, the default chunk."""

import numpy as np
import pytest

from repro.core import ScenarioBatch, UnifiedAssembler, compiled_tape
from repro.core.arena import budget_chunk_groups
from repro.fem import box_tet_mesh, get_plan
from repro.parallel import resolve_num_threads


@pytest.fixture()
def small_velocity(small_mesh):
    rng = np.random.default_rng(11)
    return 0.1 * rng.standard_normal((small_mesh.nnode, 3))


# -- executor plumbing -------------------------------------------------------


def test_resolve_num_threads_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "3")
    assert resolve_num_threads(5) == 5
    assert resolve_num_threads() == 3
    monkeypatch.delenv("REPRO_NUM_THREADS")
    assert resolve_num_threads() >= 1


def test_default_chunk_groups_bounds(params):
    """Nobody's ``chunk_groups=``: the kernel chooses from its program's
    ranks, the thread count and the one arena budget (see ``test_arena``)."""
    plan = get_plan(box_tet_mesh(10, 10, 10))  # 375 groups of 16
    # S = 4, yet no (S, lanes) row: identical scenarios fold every parameter
    shared = compiled_tape(plan, "B", 16, batch=ScenarioBatch([params] * 4))
    budget = budget_chunk_groups(shared._lane_bytes, 16, 375)
    assert shared.program.nbufs_full == 0 and 1 < budget < 375
    assert shared._resolve_cg(None, 1) == 375  # one dispatch per op, not per chunk
    assert shared._resolve_cg(None, 2) == budget  # slabs for the threads
    # explicit wins, clamped to [1, ngroups]
    assert [shared._resolve_cg(cg, 1) for cg in (0, 7, 10**6)] == [1, 7, 375]


def test_unified_rejects_threads_outside_compiled(small_mesh, params):
    with pytest.raises(ValueError, match="compiled"):
        UnifiedAssembler(
            small_mesh, params, vector_dim=16, mode="interpreted",
            executor="threads",
        )
    with pytest.raises(ValueError, match="executor"):
        UnifiedAssembler(
            small_mesh, params, vector_dim=16, mode="compiled",
            executor="fibers",
        )


# -- bitwise determinism -----------------------------------------------------


@pytest.mark.parametrize("variant", ["B", "RS", "RSPR"])
def test_threaded_bitwise_equals_serial(small_mesh, params, small_velocity, variant):
    serial = UnifiedAssembler(
        small_mesh, params, vector_dim=16, mode="compiled"
    ).assemble(variant, small_velocity)
    for threads, chunks in ((1, 2), (2, 3), (4, 1), (4, 5)):
        threaded = UnifiedAssembler(
            small_mesh, params, vector_dim=16, mode="compiled",
            executor="threads", num_threads=threads, chunk_groups=chunks,
        ).assemble(variant, small_velocity)
        assert np.array_equal(threaded, serial), (threads, chunks)


def test_threaded_runs_are_deterministic(small_mesh, params, small_velocity):
    asm = UnifiedAssembler(
        small_mesh, params, vector_dim=16, mode="compiled",
        executor="threads", num_threads=4, chunk_groups=2,
    )
    runs = [asm.assemble("RSP", small_velocity) for _ in range(3)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_execute_chunked_direct_matches_execute(small_mesh, params, small_velocity):
    tape = compiled_tape(
        get_plan(small_mesh), "RSP", 16,
        kernel_params=params.as_kernel_params(),
    )
    base = tape.execute(small_velocity)
    for cg in (1, 2, 1000):
        out = tape.execute_chunked(
            small_velocity, num_threads=2, chunk_groups=cg
        )
        assert np.array_equal(out, base)
