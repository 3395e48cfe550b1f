"""Threaded tape execution: determinism, chunking, and the chunk autotuner."""

import numpy as np
import pytest

from repro.core import (
    UnifiedAssembler,
    autotune_chunk_groups,
    compiled_tape,
)
from repro.core.arena import ARENA_BUDGET_BYTES
from repro.fem import box_tet_mesh, get_plan
from repro.parallel import default_chunk_groups, resolve_num_threads
from repro.parallel.threads import SlabPool


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


def test_default_chunk_groups_bounds():
    # never more groups than exist, never below one
    assert default_chunk_groups(10, 64, 7, 4) <= 7
    assert default_chunk_groups(10**6, 4096, 100, 64) >= 1
    # cache pressure shrinks the chunk as buffers grow: the slab is the
    # largest that fits the one arena budget ...
    small = default_chunk_groups(4, 64, 10**6, 1)
    large = default_chunk_groups(400, 64, 10**6, 1)
    assert large < small
    for nbufs, cg in ((4, small), (400, large)):
        assert nbufs * cg * 64 * 8 <= ARENA_BUDGET_BYTES
        assert nbufs * (cg + 1) * 64 * 8 > ARENA_BUDGET_BYTES
    # ... unless load balance wants more chunks than that
    assert default_chunk_groups(4, 64, 1000, 4) == 1000 // 8


def test_slab_pool_recycles_buffers():
    pool = SlabPool(nbufs=3, lanes=8, count=2)
    a1 = pool.acquire()
    a2 = pool.acquire()
    assert a1[0].shape == (3, 8) and a1[1].shape == (8,)
    pool.release(*a1)
    a3 = pool.acquire()
    assert a3[0] is a1[0]
    pool.release(*a2)
    pool.release(*a3)


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


# -- chunk autotuner ---------------------------------------------------------


def test_autotune_chunk_groups_deterministic_with_stub_timer(params):
    mesh = box_tet_mesh(3, 3, 3)
    rng = np.random.default_rng(0)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    # stub clock: candidate i takes (i+1) ticks -> first candidate wins
    ticks = iter(range(10_000))
    result = autotune_chunk_groups(
        mesh,
        "RS",
        params,
        candidates=(4, 2, 8),
        repeats=2,
        timer=lambda: next(ticks),
        vector_dim=16,
        num_threads=2,
        velocity=u,
    )
    assert result.parameter == "chunk_groups"
    assert result.mode == "compiled"
    assert result.winner in (2, 4, 8)
    assert len(result.wall_seconds) == 3
    assert get_plan(mesh).tuned_chunk_groups("RS") == result.winner
    # a threaded assembler without an explicit chunk size picks it up
    asm = UnifiedAssembler(
        mesh, params, vector_dim=16, mode="compiled", executor="threads"
    )
    serial = UnifiedAssembler(mesh, params, vector_dim=16, mode="compiled")
    assert np.array_equal(asm.assemble("RS", u), serial.assemble("RS", u))


def test_autotune_chunk_groups_requires_candidates(small_mesh, params):
    with pytest.raises(ValueError, match="candidate"):
        autotune_chunk_groups(small_mesh, "RS", params, candidates=())
