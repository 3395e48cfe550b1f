"""Row allocation of the generated kernels.

Every row a generated kernel writes -- statement outputs and fused
sub-expressions alike -- comes from ``passes.assign_rows``, one step per
ufunc call in the order Python runs the calls.  Three things are held
here: no call overwrites a value a later call still reads (white-box,
over the very steps and rows the generators used), the results keep
every bit including the sign of zero, and the row counts stay at the
level the chunk sizes of the benchmark workloads were measured with.
"""

import re

import numpy as np
import pytest

from repro.core import (
    ScenarioBatch,
    codegen,
    generate_program,
    variant_names,
)
from repro.core.codegen import generated_kernel
from repro.fem import TetMesh, get_plan
from repro.physics import AssemblyParams
from tests.core.test_batch import forcing_batch
from tests.core.test_differential import corner

VD = 16
#: slab rows of one chunk at vector_dim 16 (B/P were 93, the RS family 50,
#: while fused nodes drew private scratch rows)
ROW_CEILING = {"B": 63, "P": 63, "RS": 37, "RSP": 37, "RSPR": 37}


def _generate(form, variant):
    """``serial``: a solo sweep's program, the one-scenario batch."""
    one = ScenarioBatch([AssemblyParams()])
    if form == "elemental":  # what a mesh of 23 disjoint elements binds
        xel = np.random.default_rng(1).standard_normal((23, 4, 3))
        mesh = TetMesh(xel.reshape(-1, 3), np.arange(92).reshape(23, 4), validate=False)
        return generated_kernel(get_plan(mesh), variant, VD, one).program
    return generate_program(
        variant, VD, one if form == "serial" else forcing_batch(4),
        velocity_rank="full" if form == "full" else "vec",
    )


# -- liveness oracle -----------------------------------------------------------


def _assert_rows_are_live_when_read(steps, pool_of, row_of):
    """Replay the steps on a model of the slab: a call must find each
    operand's row still holding that operand.  A write onto a value a
    later step reads would trip the later read; a write onto a row this
    very step reads is the in-place ``out=`` case and the only aliasing
    the model allows."""
    holds = {}
    nwrites = 0
    for j, (reads, out, _) in enumerate(steps):
        for r in reads:
            assert holds.get((pool_of(r), row_of[r])) == r, (
                f"step {j} reads value {r} from a row that holds "
                f"{holds.get((pool_of(r), row_of[r]))}"
            )
        if out is not None:
            holds[(pool_of(out), row_of[out])] = out
            nwrites += 1
    return nwrites


@pytest.mark.parametrize("form", ["serial", "vec", "full", "elemental"])
@pytest.mark.parametrize("variant", variant_names())
def test_no_call_overwrites_a_value_still_to_be_read(monkeypatch, variant, form):
    assign_rows = codegen.assign_rows
    calls = []

    def recording_assign_rows(steps, pool_of):
        row_of, nrows = assign_rows(steps, pool_of)
        calls.append((steps, pool_of, row_of, nrows))
        return row_of, nrows

    monkeypatch.setattr(codegen, "assign_rows", recording_assign_rows)
    _generate(form, variant)
    assert len(calls) == 2  # setup + body: a disjoint mesh hoists too
    for steps, pool_of, row_of, nrows in calls:
        nwrites = _assert_rows_are_live_when_read(steps, pool_of, row_of)
        # rows are reused: far fewer rows than values written
        assert sum(nrows.values()) < nwrites


def test_a_parent_lands_on_its_childs_row_and_private_scratch_is_gone():
    for program in (_generate("serial", "RSP"), _generate("full", "B"),
                    _generate("elemental", "RS")):
        source = program.source
        # multiply(.., out=bv7), out=bv7): the enclosing call writes in place
        assert re.search(r"out=(b[vf]\d+)\), out=\1\)", source)
        assert not re.search(r"\bt[vf]?\d+\b", source)
        assert "scratch" not in source


# -- every bit, the sign of zero included ---------------------------------------


test_generated_replay_and_interpreted_agree_to_the_byte = corner(
    "test_generated_replay_and_interpreted_agree_to_the_byte")


# -- row ceilings ----------------------------------------------------------------


@pytest.mark.parametrize("variant", variant_names())
def test_slab_rows_stay_under_the_measured_ceiling(variant):
    """A pressure regression fails here instead of shrinking every chunk."""
    ceiling = ROW_CEILING[variant]
    for form in ("serial", "vec", "full"):
        program = _generate(form, variant)
        vec, full = program.nslab_vec, program.nslab_full
        # the per-scenario forcing of a batch costs a few rows more
        extra = 0 if form == "serial" else 8
        assert vec + full <= ceiling + extra
        if form != "full":
            assert vec <= ceiling and full <= extra
        assert program.report.buffers_live == vec + full
        assert f" rows=vec:{vec},full:{full} " in program.source
