"""Unified driver and the Listing 3 microbenchmark (Table III)."""

import numpy as np
import pytest

from repro.core import GPU_VECTOR_DIM, CPU_VECTOR_DIM, UnifiedAssembler
from repro.core.microbench import ROWLEN, run_listing3
from repro.core.dsl import KernelContext, NumpyBackend
from repro.core.storage import Storage
from repro.io.report import PAPER_TABLE3


def test_vector_dim_constants():
    assert CPU_VECTOR_DIM == 16
    assert GPU_VECTOR_DIM == 2048 * 1024


@pytest.mark.parametrize("bad", [True, False, 2.5, "8", 0, -3, np.float64(16.0), None])
def test_vector_dim_is_an_integer_of_at_least_one(small_mesh, params, bad):
    """The wire's rule (``protocol.validate``): nothing is truncated."""
    if bad is None:  # the one non-integer that means something: the default
        assert UnifiedAssembler(small_mesh, params).resolve_vector_dim() == CPU_VECTOR_DIM
        return
    with pytest.raises(ValueError, match="vector_dim"):
        UnifiedAssembler(small_mesh, params, vector_dim=bad)


@pytest.mark.parametrize("good", [1, 7, np.int64(8), np.int32(33), GPU_VECTOR_DIM])
def test_vector_dim_accepts_numpy_integers(small_mesh, params, good):
    assert UnifiedAssembler(small_mesh, params, vector_dim=good).resolve_vector_dim() == good


def test_assemble_rejects_bad_velocity(medium_mesh, params):
    asm = UnifiedAssembler(medium_mesh, params)
    with pytest.raises(ValueError, match="velocity"):
        asm.assemble("B", np.zeros((3, 3)))


def test_trace_defaults_to_zero_velocity(medium_mesh, params):
    asm = UnifiedAssembler(medium_mesh, params, vector_dim=8)
    rep = asm.trace("RS")
    assert rep.flops > 0


def test_trace_group_index(medium_mesh, params):
    asm = UnifiedAssembler(medium_mesh, params, vector_dim=8)
    r0 = asm.trace("RS", group_index=0)
    r1 = asm.trace("RS", group_index=1)
    # pattern structure is identical for any group (data-independent kernel)
    assert r0.flops == r1.flops
    assert len(r0.pattern) == len(r1.pattern)


# -- Listing 3 / Table III -----------------------------------------------------


def test_listing3_numerics():
    """temp(row) = (row+1)*A; B = sum(temp) = A * rowlen(rowlen+1)/2."""
    ctx = KernelContext(
        connectivity=np.zeros((4, 4), dtype=np.int64),
        coords=np.zeros((4, 3)),
        fields={},
        rhs=np.zeros((4, 3)),
        params={},
    )
    bk = NumpyBackend(ctx)
    temp = bk.temp("temp", (ROWLEN,), Storage.PRIVATE, static=True)
    b_arr = bk.temp("B", (1,), Storage.GLOBAL_TEMP)
    a = bk.const(2.0)
    for row in range(ROWLEN):
        bk.store(temp, (row,), float(row + 1) * a)
    acc = bk.const(0.0)
    for row in range(ROWLEN):
        acc = acc + bk.load(temp, (row,))
    bk.store(b_arr, (0,), acc)
    expected = 2.0 * ROWLEN * (ROWLEN + 1) / 2.0
    assert np.allclose(b_arr.data[:, 0], expected)


@pytest.mark.parametrize("mapping", ["global", "local", "registers"])
def test_table3_exact_match(mapping):
    """Table III reproduces exactly: store counts and volumes per thread."""
    res = run_listing3()[mapping]
    paper = PAPER_TABLE3[mapping]
    assert res.local_stores == paper["local_stores"]
    assert res.global_stores == paper["global_stores"]
    assert res.l2_store_bytes == paper["l2_store_bytes"]
    assert res.dram_store_bytes == paper["dram_store_bytes"]


def test_table3_mechanism():
    """Local stores reach L2 but not DRAM; register mapping kills both."""
    res = run_listing3()
    assert res["local"].l2_store_bytes == res["global"].l2_store_bytes
    assert res["local"].dram_store_bytes < res["global"].dram_store_bytes
    assert res["registers"].l2_store_bytes < res["local"].l2_store_bytes
