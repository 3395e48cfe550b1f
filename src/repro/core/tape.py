"""Compiled kernel tapes: record-once DSL execution with buffer arenas.

The interpreted :class:`~repro.core.dsl.NumpyBackend` allocates a fresh
lane-width array for **every** DSL binop/unop -- hundreds of short-lived
arrays per element group, the exact overhead class the paper's
Privatization (P) transformation eliminates on the GPU.  This module is
the Python analogue of P:

* :class:`RecordingBackend` runs a variant kernel **once** (symbolically,
  no numerics beyond scalar constant folding) and captures a linear SSA
  tape of the vector operations the kernel would have executed.  Because
  the kernels are straight-line code whose control flow depends only on
  runtime *flags* (baked into the tape) and never on lane data, a single
  recording is valid for every element group of every assembly.  Every
  recording is of a :class:`~repro.core.batch.ScenarioBatch`: the
  parameters that vary across it stay symbolic per-scenario ``(S, 1)``
  rows, and a solo sweep is the ``S = 1`` batch, with none.
* :func:`compile_tape` takes the shared front end of
  :mod:`repro.core.passes` (DCE backwards from the scatter calls, rank
  inference, a depth-first schedule), runs a linear-scan liveness
  analysis and assigns every surviving intermediate to a small pool of
  preallocated lane-width buffers per rank -- the numpy analog of
  registers.  The resulting :class:`TapeReport` reports "buffers live"
  the way :class:`~repro.core.dsl.TracingBackend` reports register
  pressure.
* :class:`CompiledTape` replays the one :class:`TapeProgram` over chunks
  of element groups (lanes stacked) with in-place ``out=`` ufunc calls
  into the arena, and ends with the same single-``bincount`` flush the
  deferred :class:`~repro.fem.plan.ScatterAccumulator` uses.  How many
  scenarios it sweeps is an argument of the binding: a solo sweep is the
  ``S = 1`` batch, every op rank-1.  Steady-state time-stepping does
  zero Python-level array allocation in the momentum RHS.

Bit-identity contract
---------------------
The compiled tape must produce **bit-identical** RHS output to the
interpreted ``NumpyBackend`` path.  This holds because

* every DSL arithmetic op is an elementwise float64 ufunc, so evaluating
  all groups' lanes stacked in one array gives the same per-lane bits as
  per-group evaluation;
* scalar folding at record time uses the *same* numpy-scalar arithmetic
  ``NumpyBackend`` would have used (``np.float64`` throughout), and a
  scenario row computes per scenario exactly the chain a one-scenario
  recording would have folded;
* value numbering merges only ops with the identical tag and identical
  operands (same SSA ids, same scalar *bits*), and gathers and
  ``select_gt`` are pure selection, so CSE and predicated replay
  preserve bits; and
* scatter values are laid out ``(S, ngroups, ncalls, nlane)`` so that
  their C-order flattening reproduces the accumulator's group-major
  temporal order -- the same ``bincount`` input order, hence the same
  rounding.

Tapes are cached on the :class:`~repro.fem.plan.AssemblyPlan` keyed by
:func:`tape_cache_key`; a plan lives exactly as long as its mesh, whose
arrays never change, so a tape is always bound to the mesh it was recorded
against.
"""

from __future__ import annotations

import dataclasses
import time
from functools import partial
from typing import Dict, List, Tuple, Union

import numpy as np

from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from .arena import MeshBound, aligned_empty, check_aligned, plan_cached
from .dsl import Backend, KernelContext, Temp, Value
from .passes import (
    UFUNC_NAMES,
    Front,
    assign_rows,
    front_end,
    is_scalar,
    reads,
    scalar_key,
)
from .storage import Storage, TempSpec
from .variants import get_variant

__all__ = [
    "RecordingBackend",
    "TapeReport",
    "TapeProgram",
    "CompiledTape",
    "compile_tape",
    "record_program",
    "compiled_tape",
    "tape_cache_key",
]

#: scalar reference on the tape (folded constant); vector refs are ints
Scalar = np.float64
Ref = Union[int, np.float64]

#: numpy ufunc name -> ufunc, resolved once per process
_UFUNCS = {name: getattr(np, name) for name in UFUNC_NAMES.values()}


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class RecordingBackend(Backend):
    """Captures a variant kernel's op stream as a linear SSA tape.

    Values are symbolic: a :class:`~repro.core.dsl.Value` payload is either
    an SSA id (``int`` -- a lane-wide vector produced by a recorded op) or
    a folded ``np.float64`` scalar.  Temporaries are not allocated at all;
    stores bind ``(name, linear index)`` slots to refs and loads read the
    current binding (SSA renaming), which is exactly what the eager
    backend's store-then-load round trip computes.  Loading a never-stored
    slot yields the scalar ``0.0`` -- the ``np.zeros`` initialisation the
    execution backend guarantees for non-``write_before_read`` temps.

    Every value op is numbered as it is issued: an op with the same tag
    and the same operands (SSA ids, or scalars with the same *bits* --
    ``-0.0`` is not ``0.0``) as an earlier one **is** that earlier value,
    so nothing is appended.  No commutativity and no identity folding
    (``0.0 + x`` is not bit-exact for ``x = -0.0``): only literally
    repeated work is merged, which is what the eager backend would have
    recomputed to the same bits.  Scalar arithmetic is folded at record
    time with the identical numpy-scalar operations the numpy backend
    would have executed, so folding cannot change a single bit either.

    Runtime parameters named in ``varying`` (the columns of a scenario
    batch that actually differ) are *not* folded: they become symbolic
    ``("rp", name, out)`` ops (value-numbered, so one per name) whose
    value at execution time is a per-scenario ``(S, 1)`` row.  Any op
    downstream of one is then computed for all ``S`` scenarios at once,
    while the (usually dominant) geometry/velocity chains stay at rank-1
    and are computed once per batch.  Every other parameter folds, and
    runtime *flags* specialize Python control flow (which is why a batch
    must be flag-uniform).
    """

    def __init__(self, ctx: KernelContext, varying=()) -> None:
        self.ctx = ctx
        self.varying = frozenset(varying)
        self.nlane = ctx.nlane
        self.ops: List[tuple] = []
        self.scatter_calls: List[Tuple[int, int]] = []
        self.temps: Dict[str, TempSpec] = {}
        self._slots: Dict[Tuple[str, int], Ref] = {}
        self._memo: Dict[tuple, int] = {}
        self.folded_scalars = 0
        self.gather_reuses = 0
        self.cse_removed = 0

    def _emit(self, *op) -> Value:
        """Value-number ``op`` (given without its out id): reuse the id of
        a structurally identical earlier op, else append it with a fresh
        one.  Ids and names key as themselves, scalars on their bits."""
        key = tuple(
            scalar_key(x) if isinstance(x, np.float64) else x for x in op
        )
        ref = self._memo.get(key)
        if ref is None:
            ref = self._memo[key] = len(self._memo)
            self.ops.append(op + (ref,))
        elif op[0] in ("gc", "gf"):
            self.gather_reuses += 1
        elif op[0] != "rp":
            self.cse_removed += 1
        return Value(self, ref)

    # -- scalars ---------------------------------------------------------
    def const(self, x) -> Value:
        return Value(self, np.float64(x))

    def binop(self, op: str, a: Value, b: Value) -> Value:
        pa, pb = a.payload, b.payload
        if is_scalar(pa) and is_scalar(pb):
            # Fold with the same np.float64 arithmetic NumpyBackend uses.
            self.folded_scalars += 1
            return Value(self, _UFUNCS[UFUNC_NAMES[op]](pa, pb))
        return self._emit("bin", op, pa, pb)

    def unop(self, op: str, a: Value) -> Value:
        pa = a.payload
        if is_scalar(pa):
            self.folded_scalars += 1
            return Value(self, _UFUNCS[UFUNC_NAMES[op]](pa))
        return self._emit("un", op, pa)

    def maximum(self, a: Value, b) -> Value:
        return self.binop("max", a, self._coerce(b))

    def select_gt(self, x: Value, thresh: float, a: Value, b) -> Value:
        bv = self._coerce(b)
        px, pa, pb = x.payload, a.payload, bv.payload
        if is_scalar(px):
            # Pure selection on a uniform condition: the eager backend's
            # np.where would return (a copy of) one branch wholesale.
            self.folded_scalars += 1
            return Value(self, pa if px > thresh else pb)
        return self._emit("sel", px, pa, pb, np.float64(thresh))

    def _coerce(self, x) -> Value:
        return x if isinstance(x, Value) else self.const(x)

    # -- temporaries -----------------------------------------------------
    def temp(
        self,
        name: str,
        shape: Tuple[int, ...],
        storage: Storage,
        static: bool = False,
        write_before_read: bool = False,
    ) -> Temp:
        spec = TempSpec(
            name=name,
            shape=tuple(shape),
            storage=storage,
            static=static,
            write_before_read=write_before_read,
        )
        self.temps[name] = spec
        return Temp(spec=spec, data=None)

    def load(self, temp: Temp, idx: Tuple[int, ...]) -> Value:
        lin = temp.spec.linear_index(tuple(idx))
        return Value(self, self._slots.get((temp.spec.name, lin), np.float64(0.0)))

    def store(self, temp: Temp, idx: Tuple[int, ...], value: Value) -> None:
        lin = temp.spec.linear_index(tuple(idx))
        self._slots[(temp.spec.name, lin)] = value.payload

    # -- mesh / global data ----------------------------------------------
    # Coordinates and fields are read-only during a sweep, so re-gathering
    # the same (slot, component) -- which the RSPR kernel does -- is the
    # same value.
    def gather_coord(self, node_slot: int, component: int) -> Value:
        return self._emit("gc", int(node_slot), int(component))

    def gather_field(self, field: str, node_slot: int, component: int) -> Value:
        return self._emit("gf", field, int(node_slot), int(component))

    def scatter_add_rhs(self, node_slot: int, component: int, value: Value) -> None:
        # the call index names the op's row in the deferred values buffer
        call = len(self.scatter_calls)
        self.scatter_calls.append((int(node_slot), int(component)))
        self.ops.append(
            ("sc", call, int(node_slot), int(component), value.payload)
        )

    # -- parameters ------------------------------------------------------
    def runtime_param(self, name: str) -> Value:
        if name in self.varying:
            return self._emit("rp", name)
        return self.const(self.ctx.params[name])

    def runtime_flag(self, name: str) -> int:
        # Python-level control flow: the flag value specializes the tape,
        # which is why a batch's cache key carries every flag.
        return int(self.ctx.params[name])

    def fence(self, label: str = "") -> None:
        pass

    def note_value_death(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Compilation: shared front end + linear-scan buffer-arena allocation
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TapeReport:
    """Static statistics of one compiled kernel tape.

    ``buffers_live`` is the size of the lane-width buffer arena -- the
    numpy analog of the register count :class:`TracingBackend` estimates
    with ``peak_live_values``.
    """

    variant: str
    ops_recorded: int
    ops_live: int
    dce_removed: int
    folded_scalars: int
    gather_reuses: int
    scatter_calls: int
    buffers_live: int
    binary_ops: int = 0
    unary_ops: int = 0
    select_ops: int = 0
    gather_ops: int = 0
    # shared front-end statistics: duplicate ops merged by record-time
    # value numbering (``ops_recorded == ops_live + dce_removed +
    # cse_removed``: ``ops_recorded`` counts what the kernel *issued*).
    # The rest is codegen-only (zero for replayed tapes): ops hoisted into
    # the one-time setup, the full-width pinned invariant buffers the
    # per-sweep body reads and ops inlined into fused expressions.
    # ``binary_ops`` .. ``gather_ops`` above count the per-sweep body only
    # -- what one execution runs.  ``buffers_live`` counts arena rows for
    # a replayed tape and slab rows for a generated kernel.
    cse_removed: int = 0
    hoisted_ops: int = 0
    fused_ops: int = 0
    pinned_buffers: int = 0
    # per-rank statistics of the body: ops evaluated once per sweep in
    # the (S, 1) scenario-row stage, rank-1 lane ops shared by all
    # scenarios, full-rank (S, lanes) ops, and the batch size (a solo
    # recording: 0 / every op / 0 / 1).  vec_ops / full_ops is the
    # work-retention ratio that carries the batched throughput win.
    srow_ops: int = 0
    vec_ops: int = 0
    full_ops: int = 0
    scenarios: int = 1

    def arena_bytes(self, nlane: int) -> int:
        """Arena footprint for ``nlane`` stacked lanes (float64)."""
        return self.buffers_live * nlane * 8

    def predicted_bytes(self, nlane: int) -> float:
        """Predicted arena traffic of one execution over ``nlane`` lanes.

        Uniform all-vector-operand accounting (every binop reads two 8 B
        operands, every select three plus the byte-wide mask round trip,
        every gather an index+value pair, every scatter a vector source)
        -- an *upper bound* on what the op-level profiler measures, since
        folded-scalar operands cost no arena read at execution time.  The
        gap between this and the measured bytes is therefore exactly the
        scalar-operand share, which is what the predicted-vs-measured
        residual report attributes.
        """
        per_lane = (
            self.binary_ops * 24.0
            + self.unary_ops * 16.0
            + self.select_ops * 34.0
            + self.gather_ops * 24.0
            + self.scatter_calls * 16.0
        )
        return per_lane * nlane

    def predicted_flops(self, nlane: int) -> float:
        """Predicted Flops of one execution: 1 Flop/lane per arithmetic
        op, matching :data:`repro.core.dsl._FLOP_COST`."""
        return (self.binary_ops + self.unary_ops + self.select_ops) * float(nlane)

    def summary(self) -> str:
        return "\n".join(
            [
                f"variant                  : {self.variant}",
                f"ops recorded / live      : {self.ops_recorded} / {self.ops_live}",
                f"dead ops removed         : {self.dce_removed}",
                f"scalars folded           : {self.folded_scalars}",
                f"gathers CSE'd            : {self.gather_reuses}",
                f"scatter calls            : {self.scatter_calls}",
                f"buffers live (arena)     : {self.buffers_live}",
            ]
            + (
                [
                    f"cse removed              : {self.cse_removed}",
                    f"ops hoisted to setup     : {self.hoisted_ops}",
                    f"ops fused                : {self.fused_ops}",
                    f"pinned invariant buffers : {self.pinned_buffers}",
                ]
                if (self.cse_removed or self.hoisted_ops or self.fused_ops)
                else []
            )
        )


def _make_report(
    variant: str, front: Front, buffers_live: int, scenarios: int,
    fused_ops: int = 0,
) -> TapeReport:
    """The :class:`TapeReport` of one lowering of ``front``."""
    tags = [op[0] for op in front.body]
    ranks = [front.rank[op[-1]] for op in front.body if op[0] != "sc"]
    return TapeReport(
        variant=variant,
        ops_recorded=front.ops_recorded,
        ops_live=len(front.ops),
        dce_removed=front.dce_removed,
        folded_scalars=front.folded_scalars,
        gather_reuses=front.gather_reuses,
        scatter_calls=len(front.scatter_calls),
        buffers_live=buffers_live,
        binary_ops=tags.count("bin"),
        unary_ops=tags.count("un"),
        select_ops=tags.count("sel"),
        gather_ops=tags.count("gc") + tags.count("gf"),
        cse_removed=front.cse_removed,
        hoisted_ops=len(front.setup),
        fused_ops=fused_ops,
        pinned_buffers=len(front.pinned),
        srow_ops=len(front.param_ops),
        vec_ops=ranks.count("vec"),
        full_ops=ranks.count("full"),
        scenarios=int(scenarios),
    )


def _record(variant_name: str, batch, nnode_per_element: int = 4):
    """Run a variant kernel once against a recording backend.

    The recording runs against a dummy single-lane context: kernels are
    straight-line code whose only data-dependent control flow reads the
    runtime flags of ``batch`` (a :class:`~repro.core.batch.ScenarioBatch`),
    so the captured tape is valid for any element group of any mesh.  The
    batch's varying parameters stay symbolic.  A bound kernel gathers one
    field, the velocity.
    """
    variant = get_variant(variant_name)
    ctx = KernelContext(
        connectivity=np.zeros((1, nnode_per_element), dtype=np.int64),
        coords=np.zeros((1, 3)),
        fields={"velocity": np.zeros((1, 3))},
        rhs=np.zeros((1, 3)),
        params=batch.recording_params(),
        nnode_per_element=nnode_per_element,
    )
    recorder = RecordingBackend(ctx, batch.varying)
    variant.kernel(recorder, ctx)
    for op in recorder.ops:
        if op[0] == "gf" and op[1] != "velocity":
            raise ValueError(
                f"variant {variant.name} gathers unknown field {op[1]!r}; "
                "a bound kernel only binds 'velocity'"
            )
    return variant, recorder


def _replay_steps(ops: List[tuple], external) -> List[tuple]:
    """Op-level :func:`~repro.core.passes.assign_rows` steps.

    The replay select overwrites ``out`` with branch ``b`` before reading
    branch ``a`` (mask-first order makes ``x``- and ``b``-aliasing safe),
    so ``a``'s row is held until after the output is placed.
    """
    steps = []
    for op in ops:
        rd = [r for r in reads(op) if not is_scalar(r) and r not in external]
        out = None if op[0] == "sc" or op[-1] in external else op[-1]
        hold = None
        if op[0] == "sel" and not is_scalar(op[2]) and op[2] not in external:
            hold = op[2]
        steps.append((rd, out, hold))
    return steps


def _lower(ops: List[tuple], row) -> Tuple[tuple, ...]:
    """SSA ops -> executable opcodes; ``row`` maps a value id to its
    operand form (scalars pass through)."""

    def ref(r):
        return r if is_scalar(r) else row(r)

    out: List[tuple] = []
    for op in ops:
        tag = op[0]
        if tag == "bin":
            out.append(
                (0, UFUNC_NAMES[op[1]], ref(op[2]), ref(op[3]), row(op[4]))
            )
        elif tag == "un":
            out.append((1, UFUNC_NAMES[op[1]], ref(op[2]), row(op[3])))
        elif tag == "sel":
            out.append(
                (2, ref(op[1]), ref(op[2]), ref(op[3]), op[4], row(op[5]))
            )
        elif tag == "gc":
            out.append((3, op[1], op[2], row(op[3])))
        elif tag == "gf":
            out.append((4, op[1], op[2], op[3], row(op[4])))
        else:  # sc
            out.append((5, op[1], op[2], op[3], ref(op[4])))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class TapeProgram:
    """A compiled, picklable kernel tape.

    The op stream is split in two: ``param_ops`` is the tiny
    scenario-row stage (all-``srow`` chains, evaluated once per sweep by
    :class:`~repro.core.arena.MeshBound` into ``nq`` persistent ``(S,
    1)`` buffers ``Q``; empty when no parameter varies) and ``ops`` the
    lane-wide body.  A solo sweep's recording is the ``scenarios = 1``,
    ``velocity_rank = "vec"`` case: every body op rank-1, ``nbufs_full =
    0``.  Body ops use integer opcodes and tagged operands: a folded
    ``np.float64`` scalar, ``("q", k)`` for param row ``Q[k]``, ``("v",
    row)`` for a rank-1 arena row or ``("f", row)`` for an ``(S, lanes)``
    arena row:

    ==  ==========================================  =========================
    op  operands                                    semantics
    ==  ==========================================  =========================
    0   ``(ufunc, a, b, out)``                      ``ufunc(a, b, out=out)``
    1   ``(ufunc, a, out)``                         ``ufunc(a, out=out)``
    2   ``(x, a, b, thresh, out)``                  ``where(x > thresh, a, b)``
    3   ``(node_slot, component, out)``             coordinate gather
    4   ``(field, node_slot, component, out)``      field gather
    5   ``(call, node_slot, component, src)``       deferred RHS scatter
    ==  ==========================================  =========================

    Param-stage op forms (refs are ``np.float64`` scalars or ``Q``
    indices)::

        ("rp",  name, out)                      # refresh from the batch
        ("bin", ufunc_name, a, b, out)
        ("un",  ufunc_name, a, out)
        ("sel", x, a, b, thresh, out)
    """

    variant: str
    params_key: tuple  # the batch's cache_key()
    scenarios: int
    velocity_rank: str
    param_ops: Tuple[tuple, ...]
    nq: int
    ops: Tuple[tuple, ...]
    nbufs_vec: int
    nbufs_full: int
    scatter_calls: Tuple[Tuple[int, int], ...]
    report: TapeReport
    nnode_per_element: int = 4


def compile_tape(
    recorder: RecordingBackend,
    variant: str,
    params_key: tuple,
    scenarios: int = 1,
    velocity_rank: str = "vec",
) -> TapeProgram:
    """Lower a recorded tape: shared front end, two-pool liveness, arena
    rows."""
    front = front_end(recorder, velocity_rank, hoist=False)
    rank, q_of = front.rank, front.q_of
    rows, n = assign_rows(_replay_steps(front.body, q_of), rank.__getitem__)

    def tagged(r):
        if r in q_of:
            return ("q", q_of[r])
        return ("f" if rank[r] == "full" else "v", rows[r])

    nvec, nfull = n.get("vec", 0), n.get("full", 0)
    return TapeProgram(
        variant=variant,
        params_key=tuple(params_key),
        scenarios=int(scenarios),
        velocity_rank=velocity_rank,
        param_ops=front.param_ops,
        nq=len(q_of),
        ops=_lower(front.body, tagged),
        nbufs_vec=nvec,
        nbufs_full=nfull,
        scatter_calls=front.scatter_calls,
        report=_make_report(variant, front, nvec + nfull, scenarios),
        nnode_per_element=recorder.ctx.nnode_per_element,
    )


def record_program(
    variant_name: str,
    batch,
    nnode_per_element: int = 4,
    velocity_rank: str = "vec",
) -> TapeProgram:
    """Record a variant once for ``batch`` (a
    :class:`~repro.core.batch.ScenarioBatch`; a solo sweep's is the
    ``S = 1`` batch) and compile it to a :class:`TapeProgram`.

    The runtime parameters that vary across the batch stay symbolic
    per-scenario rows instead of folding, and ``velocity_rank="full"``
    records per-scenario velocities.
    """
    with get_tracer().span(
        "tape.record", variant=variant_name.upper(), scenarios=batch.size
    ):
        variant, recorder = _record(variant_name, batch, nnode_per_element)
        program = compile_tape(
            recorder, variant.name, batch.cache_key(), batch.size, velocity_rank
        )
    registry = get_registry()
    registry.counter("tape.records").inc()
    registry.gauge(f"tape.full_ops.{variant.name}").set(program.report.full_ops)
    return program


# ---------------------------------------------------------------------------
# The bound kernel
# ---------------------------------------------------------------------------


class CompiledTape(MeshBound):
    """Executable tape bound to one ``(plan, packing)`` pair.

    Element groups are stacked into a lane axis and replayed chunk by
    chunk, each tape op one ufunc call per chunk.  Rank-1 (``vec``) ops
    run once per sweep over the chunk's lanes; only ``full`` ops --
    chains downstream of a varying parameter or of per-scenario
    velocities, none in a solo sweep's recording -- run over ``(S,
    lanes)``.  Scatter values land in the binding's preallocated ``(S,
    ngroups, ncalls, vector_dim)`` buffer (:class:`~repro.core.arena.MeshBound`),
    which :mod:`repro.fem.plan` reduces (scenario by scenario) over the
    one pattern the interpreted sweep of the configuration shares: the
    final ``bincount`` flush is bit-identical to the interpreted
    :class:`~repro.fem.plan.ScatterAccumulator` (and hence to the seed
    ``np.add.at`` path).

    Every chunk's operand arrays are resolved once into prebound op
    tuples, cached per ``(chunk_groups, nslabs)``, so steady-state replay
    does no Python-level ref resolution.
    """

    _span = "tape.execute"
    _mode = "compiled"

    def __init__(self, program: TapeProgram, plan, packing):
        super().__init__(program, plan, packing)
        self._closure_cache: Dict[tuple, list] = {}
        # rank-1 + (S, lanes) rows and their masks
        self._lane_bytes = (
            8 * program.nbufs_vec + 1
            + self.S * (8 * program.nbufs_full + 1)
        )

    def _default_cg(self, nthreads: int) -> int:
        """A replayed chunk costs one ufunc dispatch per op: a rank-1-only
        program on one thread takes the whole mesh as its chunk
        (EXPERIMENTS.md "Arena placement"); ``(S, lanes)`` rows, or slabs
        for several threads, take the arena budget."""
        if nthreads == 1 and not self.program.nbufs_full:
            return self.ngroups
        return self._budget_cg()

    def _bind_chunk(self, g0: int, g1: int, slab) -> Tuple[list, list]:
        """Resolve one chunk's ops to prebound ``(code, arrays...)``.

        Returns the op list and a parallel per-op lane-count list (honest
        work: ``n`` lanes for rank-1 ops, ``S * n`` for full-rank ones).
        """
        arena_v, arena_f_flat, mask_v, mask_f_flat, mask_q = slab
        vd = self.vector_dim
        lo = g0 * vd
        n = (g1 - g0) * vd
        nrows = g1 - g0
        S = self.S
        lanes = slice(lo, lo + n)
        Q = self._Q

        def arr(ref):
            tag = ref[0]
            if tag == "v":
                return arena_v[ref[1], :n]
            if tag == "f":
                return arena_f_flat[ref[1], : S * n].reshape(S, n)
            return Q[ref[1]]  # "q"

        # lowered operands are tagged tuples or folded np.float64 scalars
        # (never plain ints, so tuple-ness is the whole scalar test here)
        def operand(ref):
            return arr(ref) if isinstance(ref, tuple) else ref

        def lanes_of(ref) -> int:
            if not isinstance(ref, tuple) or ref[0] == "q":
                return S
            return S * n if ref[0] == "f" else n

        ops: List[tuple] = []
        nlanes: List[int] = []
        for op in self.program.ops:
            code = op[0]
            if code == 0:
                ops.append((0, _UFUNCS[op[1]], operand(op[2]),
                            operand(op[3]), arr(op[4])))
                nlanes.append(lanes_of(op[4]))
            elif code == 1:
                ops.append((1, _UFUNCS[op[1]], operand(op[2]), arr(op[3])))
                nlanes.append(lanes_of(op[3]))
            elif code == 2:
                x = op[1]
                if not isinstance(x, tuple) or x[0] == "q":
                    m = mask_q
                elif x[0] == "f":
                    m = mask_f_flat[: S * n].reshape(S, n)
                else:
                    m = mask_v[:n]
                ops.append((2, operand(x), operand(op[2]), operand(op[3]),
                            op[4], arr(op[5]), m))
                nlanes.append(lanes_of(op[5]))
            elif code == 3:
                ops.append((3, self._ccols[op[2]], self._idx[op[1]][lanes],
                            arr(op[3])))
                nlanes.append(n)
            elif code == 4:
                full = self.program.velocity_rank == "full"
                ops.append((4 if full else 3, self._vcols[op[3]],
                            self._idx[op[2]][lanes], arr(op[4])))
                nlanes.append(S * n if full else n)
            else:  # 5: scatter
                _, call, slot, comp, src = op
                dst = self._values[..., g0:g1, call, :]
                if not isinstance(src, tuple):
                    ops.append((6, dst, src))
                elif src[0] == "q":
                    ops.append((5, dst, Q[src[1]].reshape(S, 1, 1)))
                elif src[0] == "f":
                    ops.append((5, dst, arr(src).reshape(S, nrows, vd)))
                else:
                    ops.append((5, dst, arr(src).reshape(nrows, vd)))
                nlanes.append(S * n)
        # everything a chunk computes in, reads lanes from or writes to
        # (gather *sources* are node-indexed columns, not lane buffers)
        check_aligned(
            (
                a
                for op in ops
                for a in op[2 if op[0] in (3, 4) else 1:]
                if isinstance(a, np.ndarray)
            ),
            vd,
        )
        return ops, nlanes

    def _closures(self, cg: int, nslabs: int) -> list:
        """Per-slab lists of prebound chunks, cached per (cg, nslabs)."""
        cached = self._closure_cache.get((cg, nslabs))
        if cached is not None:
            return cached
        cgw = cg * self.vector_dim
        S = self.S
        slabs = [
            (
                aligned_empty((self.program.nbufs_vec, cgw)),
                aligned_empty((self.program.nbufs_full, S * cgw)),
                aligned_empty(cgw, dtype=bool),
                aligned_empty(S * cgw, dtype=bool),
                aligned_empty((S, 1), dtype=bool),
            )
            for _ in range(nslabs)
        ]
        per_slab: List[list] = [[] for _ in range(nslabs)]
        for i, (g0, g1) in enumerate(self._chunks(cg)):
            per_slab[i % nslabs].append(
                self._bind_chunk(g0, g1, slabs[i % nslabs])
            )
        self._closure_cache[(cg, nslabs)] = per_slab
        return per_slab

    # -- op execution -----------------------------------------------------

    @staticmethod
    def _run_ops(ops: list) -> None:
        for op in ops:
            code = op[0]
            if code == 0:
                op[1](op[2], op[3], out=op[4])
            elif code == 1:
                op[1](op[2], out=op[3])
            elif code == 2:
                _, x, a, b, thresh, out, m = op
                np.greater(x, thresh, out=m)
                out[...] = b
                np.copyto(out, a, where=m)
            elif code == 3:
                np.take(op[1], op[2], out=op[3])
            elif code == 4:
                np.take(op[1], op[2], axis=1, out=op[3])
            elif code == 5:
                np.copyto(op[1], op[2])
            else:  # code == 6
                op[1][...] = op[2]

    @classmethod
    def _run_ops_timed(cls, ops: list, nlanes: list, profile) -> None:
        clock = time.perf_counter
        for i in range(len(ops)):
            t0 = clock()
            cls._run_ops(ops[i:i + 1])
            profile.record(i, clock() - t0, nlanes[i])

    def _run_slab(self, chunks: list, profile=None) -> None:
        if profile is None:
            for ops, _ in chunks:
                self._run_ops(ops)
        else:
            for ops, nlanes in chunks:
                self._run_ops_timed(ops, nlanes, profile)

    def _tasks(self, cg: int, nslabs: int, profile) -> list:
        return [
            partial(self._run_slab, chunks, profile)
            for chunks in self._closures(cg, nslabs)
        ]


# ---------------------------------------------------------------------------
# Plan-level cache
# ---------------------------------------------------------------------------


def tape_cache_key(
    variant_name: str, vector_dim: int, batch, velocity_rank: str = "vec"
) -> tuple:
    """Everything baked into one bound kernel: variant, group size and
    the recording's identity -- the batch's size, *which* parameters vary,
    every folded constant and flag -- and the velocity rank.  A batch's
    varying *values* live outside the kernel (every sweep takes them as
    ``param_rows``), so sweeping a campaign over new values of the same
    parameters re-records nothing."""
    return (variant_name.upper(), int(vector_dim), batch.cache_key(), velocity_rank)


def compiled_tape(
    plan,
    variant_name: str,
    vector_dim: int,
    batch,
    velocity_rank: str = "vec",
) -> CompiledTape:
    """The plan-cached :class:`CompiledTape` for one configuration.

    Tapes are recorded once per :func:`tape_cache_key` and cached on the
    mesh's :class:`~repro.fem.plan.AssemblyPlan`.
    """
    key = tape_cache_key(variant_name, vector_dim, batch, velocity_rank)
    return plan_cached(
        plan, "tape", key, vector_dim, batch,
        lambda packing: CompiledTape(
            record_program(key[0], batch, velocity_rank=velocity_rank),
            plan, packing,
        ),
    )
