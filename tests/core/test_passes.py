"""The shared front end: one value-numbered, scheduled program per kernel.

Both lowerings -- compiled replay and generated source, serial or
batched, at any group size -- consume the same
:func:`repro.core.passes.front_end` output, so the op accounting must
agree everywhere and value numbering must merge only literally repeated
work.  Bit-identity of the results is pinned by the hypothesis suites of
``test_tape`` / ``test_codegen`` / ``test_batch``.
"""

import numpy as np
import pytest

from repro.core import ScenarioBatch, variant_names
from repro.core.codegen import generate_program
from repro.core.dsl import KernelContext
from repro.core.storage import Storage
from repro.core.tape import RecordingBackend, record_program


def _recorder():
    ctx = KernelContext(
        connectivity=np.zeros((1, 4), dtype=np.int64),
        coords=np.zeros((1, 3)),
        fields={"velocity": np.zeros((1, 3))},
        rhs=np.zeros((1, 3)),
        params={},
    )
    return RecordingBackend(ctx)


# -- op accounting across back ends -------------------------------------------


@pytest.mark.parametrize("variant", variant_names())
def test_accounting_identity_and_equal_live_ops(params, variant):
    one = ScenarioBatch([params])
    batch = ScenarioBatch.from_arrays(
        viscosity=np.array([1.0e-3, 2.0e-3, 3.0e-3]),
        body_force=params.body_force,
    )
    serial, batched = (
        {"compiled": record_program(variant, b).report,
         "codegen": generate_program(variant, 64, b).report}
        for b in (one, batch)
    )
    serial["codegen16"] = generate_program(variant, 16, one).report
    for r in list(serial.values()) + list(batched.values()):
        assert r.ops_recorded == r.ops_live + r.dce_removed + r.cse_removed
        assert r.cse_removed > 0  # every kernel repeats some work
    assert len({r.ops_live for r in serial.values()}) == 1
    assert len({r.ops_live for r in batched.values()}) == 1
    assert len({r.cse_removed for r in serial.values()}) == 1
    # the generated kernels hoist (the same coordinate-only partition,
    # serial or batched, at any group size); replay tapes run every live op
    # per sweep
    assert serial["codegen"].hoisted_ops == batched["codegen"].hoisted_ops > 0
    assert serial["codegen16"].hoisted_ops == serial["codegen"].hoisted_ops
    for r in (serial["compiled"], batched["compiled"]):
        assert r.hoisted_ops == r.pinned_buffers == 0
    assert batched["compiled"].scenarios == batched["codegen"].scenarios == 3
    # a solo sweep's recording is the all-rank-1, S = 1 case of the one report
    for r in serial.values():
        assert (r.srow_ops, r.full_ops, r.scenarios) == (0, 0, 1) and r.vec_ops > 0


def test_replay_arena_is_scheduled(params):
    """CSE alone lengthens live ranges; the depth-first schedule keeps
    B's replay arena small (it was 211 rows in recorded order)."""
    assert record_program("B", ScenarioBatch([params])).report.buffers_live <= 100


# -- value numbering -----------------------------------------------------------


def test_value_numbering_keys_on_exact_bits_without_algebra():
    bk = _recorder()
    x = bk.gather_coord(0, 0)
    y = bk.gather_coord(1, 0)
    plus = bk.binop("add", x, bk.const(0.0))
    minus = bk.binop("add", x, bk.const(-0.0))
    assert plus.payload != minus.payload  # -0.0 is not 0.0
    assert plus.payload != x.payload  # no identity folding
    assert bk.binop("mul", x, y).payload != bk.binop("mul", y, x).payload
    assert bk.cse_removed == 0
    # a literally repeated op is the earlier value
    assert bk.binop("add", x, bk.const(0.0)).payload == plus.payload
    assert bk.select_gt(x, 0.5, y, 1.0).payload == bk.select_gt(x, 0.5, y, 1.0).payload
    assert bk.select_gt(x, 0.5, y, 1.0).payload != bk.select_gt(x, 0.25, y, 1.0).payload
    assert bk.cse_removed == 3
    assert bk.gather_coord(0, 0).payload == x.payload and bk.gather_reuses == 1
    assert len(bk.ops) == 8  # 2 gathers, 4 binops, 2 selects


def test_restored_temp_slot_does_not_alias_stale_value():
    """Numbering keys on SSA ids, and a load reads the slot's *current*
    binding, so reusing a temp never resurrects what it held before."""
    bk = _recorder()
    x = bk.gather_coord(0, 0)
    y = bk.gather_coord(1, 0)
    t = bk.temp("t", (1,), Storage.PRIVATE)
    bk.store(t, (0,), x)
    first = bk.binop("mul", bk.load(t, (0,)), y)
    bk.store(t, (0,), y)
    second = bk.binop("mul", bk.load(t, (0,)), y)
    assert second.payload != first.payload  # y * y, not the stale x * y
    assert bk.binop("mul", x, y).payload == first.payload
