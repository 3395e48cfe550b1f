"""The shared front half of the kernel pipeline.

::

    record + number -> DCE -> rank -> [hoist] -> schedule -> { liveness + replay
    (tape recorders)   `--------- front_end -----------'     | fuse + rows + emit }

The recorder of :mod:`repro.core.tape` value-numbers ops as the kernel
issues them (CSE happens *while* recording); :func:`front_end` runs the
remaining passes once, and both lowerings -- ``tape.compile_tape`` and
``codegen.generate_program`` -- consume the same :class:`Front` of one
scenario batch's recording (a solo sweep's ``S = 1`` batch: every value
rank-1, no parameter stage).  The replay back end adds op-level liveness
and opcode lowering, the source back end adds fusion, call-level
liveness (one step per ufunc call of a fused statement) and emission;
both allocate every row they write with :func:`assign_rows`.

SSA op forms (last element of a value op is its id; refs are value ids
or folded ``np.float64`` scalars)::

    ("bin", op, a, b, out)      ("gc", slot, comp, out)
    ("un",  op, a, out)         ("gf", field, slot, comp, out)
    ("sel", x, a, b, thresh, out)   ("rp", name, out)
    ("sc",  call, slot, comp, src)

Every pass preserves bits: DCE and scheduling only drop or reorder pure
SSA definitions (scatters keep their call order, so the deferred values
buffer reduces every bin in the same order); hoisting (generated kernels
only) evaluates coordinate-only values once per bind instead of once per
sweep, from the same inputs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "UFUNC_NAMES",
    "Front",
    "assign_rows",
    "front_end",
    "is_scalar",
    "reads",
    "scalar_key",
]

#: DSL op name -> numpy ufunc name (picklable; resolved at execution time)
UFUNC_NAMES = {
    "add": "add",
    "sub": "subtract",
    "mul": "multiply",
    "div": "true_divide",
    "max": "maximum",
    "neg": "negative",
    "sqrt": "sqrt",
    "cbrt": "cbrt",
}


def is_scalar(ref) -> bool:
    """A ref is a folded scalar unless it is an SSA id / arena row."""
    return not isinstance(ref, (int, np.integer)) or isinstance(ref, bool)


def scalar_key(x) -> bytes:
    """Exact-bits value-numbering key for a folded scalar.  ``tobytes``
    distinguishes ``-0.0`` from ``0.0`` (``float`` equality would merge
    them, changing bits at e.g. ``x + -0.0`` for ``x = -0.0``)."""
    return np.float64(x).tobytes()


def reads(op: tuple) -> Tuple:
    """Operand refs (value ids or folded scalars) of an SSA op."""
    tag = op[0]
    if tag == "bin":
        return (op[2], op[3])
    if tag == "un":
        return (op[2],)
    if tag == "sel":
        return (op[1], op[2], op[3])
    if tag == "sc":
        return (op[4],)
    return ()  # gc / gf / rp


def _vreads(op: tuple) -> List[int]:
    return [r for r in reads(op) if not is_scalar(r)]


def _dce(ops: Sequence[tuple]) -> List[tuple]:
    """Drop ops unreachable backwards from the scatter roots."""
    needed: Set[int] = set()
    live: List[tuple] = []
    for op in reversed(ops):
        if op[0] == "sc" or op[-1] in needed:
            live.append(op)
            needed.update(_vreads(op))
    live.reverse()
    return live


def _infer_ranks(ops: Sequence[tuple], velocity_rank: str) -> Dict[int, str]:
    """Rank of every value: ``srow`` is a per-scenario ``(S, 1)``
    parameter row, ``vec`` a rank-1 ``(lanes,)`` vector shared by all
    scenarios, ``full`` a per-scenario ``(S, lanes)`` matrix;
    ``join(vec, srow) = full`` and scalars are rank-neutral.  A recording
    with nothing varying has no ``rp`` ops, so everything in it is ``vec``."""
    rank: Dict[int, str] = {}
    for op in ops:
        tag = op[0]
        if tag == "sc":
            continue
        if tag == "rp":
            rank[op[-1]] = "srow"
        elif tag == "gc":
            rank[op[-1]] = "vec"
        elif tag == "gf":
            rank[op[-1]] = velocity_rank
        else:  # bin / un / sel
            rs = {rank[r] for r in _vreads(op)}
            if rs <= {"srow"}:
                rank[op[-1]] = "srow"
            elif rs == {"vec"}:
                rank[op[-1]] = "vec"
            else:
                rank[op[-1]] = "full"
    return rank


def _invariants(ops: Sequence[tuple]) -> Set[int]:
    """Value ids constant across sweeps: coordinate gathers and anything
    computed only from them (and folded scalars).  Field gathers read the
    per-sweep velocity, so they -- and everything downstream -- vary."""
    inv: Set[int] = set()
    for op in ops:
        tag = op[0]
        if tag == "gc":
            inv.add(op[-1])
        elif tag in ("bin", "un", "sel"):
            if all(is_scalar(r) or r in inv for r in reads(op)):
                inv.add(op[-1])
    return inv


def _schedule(
    ops: Sequence[tuple], prod: Dict[int, tuple], extra_roots: Sequence[int] = ()
) -> List[tuple]:
    """Reorder one partition's ops depth-first from its scatter roots
    (then ``extra_roots`` -- pinned values the partition's own scatters
    do not reach), shrinking producer-consumer distance so liveness needs
    far fewer rows than the recorded order.  ``prod`` holds only the
    partition's own producers: anything else is an external input."""
    sched: List[tuple] = []
    emitted: Set[int] = set()
    opened: Set[int] = set()

    def visit(root: int) -> None:
        stack = [root]
        while stack:
            r = stack[-1]
            if r in emitted or r not in prod:
                stack.pop()
                continue
            op = prod[r]
            if r in opened:
                stack.pop()
                emitted.add(r)
                sched.append(op)
                continue
            opened.add(r)
            for q in reversed(_vreads(op)):
                if q not in emitted and q in prod:
                    stack.append(q)

    for op in ops:
        if op[0] == "sc":
            if not is_scalar(op[4]):
                visit(op[4])
            sched.append(op)
    for r in extra_roots:
        visit(r)
    return sched


def assign_rows(
    steps: Sequence[Tuple[Sequence[int], Optional[int], Optional[int]]],
    pool_of: Callable[[int], str] = lambda r: "vec",
) -> Tuple[Dict[int, int], Dict[str, int]]:
    """Linear-scan row allocation (one LIFO free list per pool).

    ``steps`` is a scheduled list of ``(reads, out, hold)``: the
    allocatable value ids a step reads, the id it defines (``None`` for
    scatters and externally-owned outputs) and an optional read whose row
    must survive until ``out`` is placed.  Dying reads release their row
    *before* the output is placed, so in-place ``out=`` aliasing happens
    naturally; pools are disjoint, so a rank-1 row is never handed to an
    ``(S, lanes)`` value.  Returns ``(row_of, rows per pool)``.
    """
    last: Dict[int, int] = {}
    for j, (rd, _, _) in enumerate(steps):
        for r in rd:
            last[r] = j
    row_of: Dict[int, int] = {}
    free: Dict[str, List[int]] = {}
    nrows: Dict[str, int] = {}
    for j, (rd, out, hold) in enumerate(steps):
        held = False
        for r in sorted(set(rd)):
            if last[r] != j:
                continue
            if r == hold:
                held = True
            else:
                free.setdefault(pool_of(r), []).append(row_of[r])
        if out is not None:
            pool = pool_of(out)
            if free.get(pool):
                row_of[out] = free[pool].pop()
            else:
                row_of[out] = nrows.get(pool, 0)
                nrows[pool] = row_of[out] + 1
        if held:
            free.setdefault(pool_of(hold), []).append(row_of[hold])
    return row_of, nrows


@dataclasses.dataclass
class Front:
    """One recorded kernel after the shared passes.

    ``setup`` is the scheduled coordinate-only partition (run once per
    bound mesh into ``pinned`` rows; empty without hoisting), ``body`` the
    scheduled per-sweep partition holding every scatter in call order,
    ``param_ops`` the lowered ``(S, 1)`` scenario-row stage of the
    recording (values ``q_of``), in the format
    :class:`repro.core.arena.MeshBound` evaluates before every sweep.
    """

    ops: List[tuple]  # live ops in recorded order
    prod: Dict[int, tuple]
    rank: Dict[int, str]
    param_ops: Tuple[tuple, ...]
    q_of: Dict[int, int]
    setup: List[tuple]
    body: List[tuple]
    pinned: List[int]
    scatter_calls: Tuple[Tuple[int, int], ...]
    ops_recorded: int
    dce_removed: int
    cse_removed: int
    folded_scalars: int
    gather_reuses: int

    def external(self) -> Set[int]:
        """Values the body reads but does not own a row for."""
        return set(self.pinned) | set(self.q_of)


def front_end(recorder, velocity_rank: str = "vec", *, hoist: bool) -> Front:
    """DCE, rank inference, param-stage peeling, invariant hoisting and
    depth-first scheduling of one recording.

    ``hoist`` is on for the generated kernels, whose ``setup()`` fills
    pinned rows once per bind; the replay lowering keeps everything in
    the body.
    """
    if velocity_rank not in ("vec", "full"):
        raise ValueError(
            f"velocity_rank must be 'vec' or 'full', got {velocity_rank!r}"
        )
    live = _dce(recorder.ops)
    rank = _infer_ranks(live, velocity_rank)

    # srow ops are closed under their inputs (scalar/srow only), so the
    # whole stage is a tiny straight-line prefix evaluated once per
    # execute; every srow value gets its own persistent Q row.
    q_of: Dict[int, int] = {}
    param_ops: List[tuple] = []
    rest: List[tuple] = []
    for op in live:
        if op[0] == "sc" or rank[op[-1]] != "srow":
            rest.append(op)
            continue
        q_of[op[-1]] = len(q_of)
        # value ids -> Q rows; names, thresholds and folded scalars stay
        refs = [r if is_scalar(r) else q_of[r] for r in op[1:]]
        if op[0] in ("bin", "un"):
            refs[0] = UFUNC_NAMES[op[1]]
        param_ops.append((op[0], *refs))

    inv = _invariants(rest) if hoist else set()
    setup_ops = [op for op in rest if op[0] != "sc" and op[-1] in inv]
    body_ops = [op for op in rest if op[0] == "sc" or op[-1] not in inv]
    pinned = sorted({r for op in body_ops for r in _vreads(op) if r in inv})
    prod = {op[-1]: op for op in live if op[0] != "sc"}
    return Front(
        ops=live,
        prod=prod,
        rank=rank,
        param_ops=tuple(param_ops),
        q_of=q_of,
        setup=_schedule(
            setup_ops, {op[-1]: op for op in setup_ops}, extra_roots=pinned
        ),
        body=_schedule(
            body_ops, {op[-1]: op for op in body_ops if op[0] != "sc"}
        ),
        pinned=pinned,
        scatter_calls=tuple(recorder.scatter_calls),
        ops_recorded=len(recorder.ops) + recorder.cse_removed,
        dce_removed=len(recorder.ops) - len(live),
        cse_removed=recorder.cse_removed,
        folded_scalars=recorder.folded_scalars,
        gather_reuses=recorder.gather_reuses,
    )
