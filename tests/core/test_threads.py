"""Threaded tape execution: determinism, chunking, the default chunk."""

import os

import pytest

from repro.core import ScenarioBatch, UnifiedAssembler, compiled_tape
from repro.core.arena import budget_chunk_groups
from repro.fem import box_tet_mesh, get_plan
from repro.parallel import resolve_num_threads
from tests.core.test_differential import corner


# -- executor plumbing -------------------------------------------------------


def test_resolve_num_threads_explicit_wins():
    assert resolve_num_threads(5) == 5
    assert resolve_num_threads() == len(os.sched_getaffinity(0))


def test_default_chunk_groups_bounds(params):
    """Nobody's ``chunk_groups=``: the kernel chooses from its program's
    ranks, the thread count and the one arena budget (see ``test_arena``)."""
    plan = get_plan(box_tet_mesh(10, 10, 10))  # 375 groups of 16
    # S = 4, yet no (S, lanes) row: identical scenarios fold every parameter
    shared = compiled_tape(plan, "B", 16, ScenarioBatch([params] * 4))
    budget = budget_chunk_groups(shared._lane_bytes, 16, 375)
    assert shared.program.nbufs_full == 0 and 1 < budget < 375
    assert shared._resolve_cg(None, 1) == 375  # one dispatch per op, not per chunk
    assert shared._resolve_cg(None, 2) == budget  # slabs for the threads
    # explicit wins, clamped to [1, ngroups]
    assert [shared._resolve_cg(cg, 1) for cg in (0, 7, 10**6)] == [1, 7, 375]


def test_unified_rejects_threads_outside_compiled(small_mesh, params):
    with pytest.raises(ValueError, match="compiled"):
        UnifiedAssembler(small_mesh, params, vector_dim=16, mode="interpreted", executor="threads")
    with pytest.raises(ValueError, match="executor"):
        UnifiedAssembler(small_mesh, params, vector_dim=16, mode="compiled", executor="fibers")


# -- bitwise determinism -----------------------------------------------------


test_threaded_bitwise_equals_serial = corner("test_threaded_bitwise_equals_serial")
test_threaded_runs_are_deterministic = corner("test_threaded_runs_are_deterministic")
test_execute_chunked_direct_matches_execute = corner("test_execute_chunked_direct_matches_execute")

