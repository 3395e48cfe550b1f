"""Tape-to-source code generation: fused, exec-compiled assembly kernels.

The compiled tapes of :mod:`repro.core.tape` eliminate per-op *allocation*
but still replay op-by-op through a Python loop -- thousands of ufunc
dispatch round trips per sweep, which the op-level profiler attributes as
pure dispatch overhead on short-lived ops.  This module removes that last
interpreter layer, the Python analogue of the paper's single fused OpenACC
kernel per variant: each recorded kernel tape is lowered to *generated
Python source* -- one function per ``(variant, vector_dim)`` -- that is
``exec``-compiled once and cached on the :class:`~repro.fem.plan.AssemblyPlan`
next to the tape, so a sweep becomes a single function call per chunk.

Lowering pipeline.  Steps 1-4 are the shared front end of
:mod:`repro.core.passes` -- the same scheduled program the replay
lowerings of :mod:`repro.core.tape` consume -- and 5-6 are this back end:

1. **Value numbering** while recording (CSE): structurally identical ops
   are one value; scalar operands key on their exact ``float64`` bits
   (``tobytes``), never on Python ``float`` equality, so ``-0.0``/``0.0``
   are not merged and bit-identity survives.
2. **DCE** backwards from the scatter roots.
3. **Invariant hoisting**: ops depending only on coordinate gathers are
   loop-invariant across sweeps; they move to a ``setup`` function
   executed once at bind time into pinned full-width buffers.
4. **DFS scheduling** from the scatter roots, shrinking producer-consumer
   distance so the liveness pass below needs far fewer slab rows than the
   recorded order.
5. **Single-use fusion**: a unary/binary/select op whose value is consumed
   exactly once is inlined into its consumer's expression (bounded depth),
   collapsing ufunc chains into single numpy expressions.  Selects are
   emitted as ``where(greater(x, t), a, b)`` expressions, which evaluate
   their arguments before the destination is written -- no aliasing
   protection needed anywhere.
6. **Row allocation**: every ufunc call of every statement -- fused
   sub-expressions and statement roots alike -- is one step of
   :func:`~repro.core.passes.assign_rows`, in the order Python runs the
   calls.  One LIFO free list per rank pool serves them all; dying
   operands are released before the output is placed, so a call lands in
   place on an operand's row (``add(a, b, out=a)``) and a chunk's slab
   holds only the values that are live at once.

Bit-identity contract
---------------------
Generated code must match the interpreted backend *exactly*.  Every pass
preserves bits: DCE/CSE/scheduling only drop or reorder pure SSA value
definitions (each value is still computed by the identical ufunc over
identical operands); hoisting replays invariant ops once instead of every
sweep (same inputs, same bits); fusion feeds a ufunc the freshly computed
operand array instead of a stored copy of it; ``where`` is pure selection;
and scatter values land in the same ``(group, call, lane)`` layout flushed
by the same shared plan pattern as the compiled tape.  Scalar literals are
embedded via ``repr(float(x))`` -- shortest round-trip repr is exact for
float64 -- with non-finite values spelled ``float('inf')`` etc.

One :class:`CodegenProgram`, one :func:`generate_program` and one
:class:`GeneratedKernel` serve every caller: every program is of a
scenario batch, its varying parameters left symbolic, and a solo sweep is
the ``S = 1`` batch, every value rank-1.  Generated source is fully
deterministic (all set iterations are sorted), so equal programs carry
byte-identical source and the module-level code cache (:data:`_CODE_CACHE`) guarantees a
cache hit never re-``exec``\\ s.

Set ``REPRO_CODEGEN_DUMP=<dir>`` to dump every generated module to
``<dir>/<variant>_vd<N>[_S<S>].py``.  A program also carries its
statements printed as one C lane loop (:mod:`repro.core.native`, dumped
as ``.c``): once a compiler has built it and one real sweep matched the
Python form bitwise, it serves the sweeps.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from ..parallel.threads import cpu_count, interface_spill
from .arena import MeshBound, aligned_empty, check_aligned, plan_cached
from .passes import UFUNC_NAMES as _UFUNC_NAMES
from .passes import Front, assign_rows, front_end
from .passes import is_scalar as _is_scalar
from .passes import reads as _reads
from .tape import TapeReport, _make_report, _record, tape_cache_key

__all__ = [
    "MAX_FUSE_DEPTH",
    "CodegenProgram",
    "GeneratedKernel",
    "generate_program",
    "generated_kernel",
    "stop_builds",
]

#: maximum fused-subtree depth inlined into one expression
MAX_FUSE_DEPTH = 10

#: names resolvable inside generated modules (picklable source resolves
#: ufuncs at exec time, exactly like the tape's _UFUNC_NAMES indirection)
_NAMESPACE: Dict[str, object] = {
    "take": np.take,
    "copyto": np.copyto,
    "where": np.where,
    "greater": np.greater,
}
for _name in sorted(set(_UFUNC_NAMES.values())):
    _NAMESPACE[_name] = getattr(np, _name)

#: source string -> compiled code object; a cache hit never re-compiles
_CODE_CACHE: Dict[str, object] = {}


# ---------------------------------------------------------------------------
# Fusion and statement liveness (the source back end's own passes)
# ---------------------------------------------------------------------------


def _fuse(sched: List[tuple], exclude: Set[int]) -> Set[int]:
    """Ids of single-use arithmetic ops to inline into their consumer.

    Gathers stay statements (they need an ``out=`` target), as does any
    value consumed more than once (inlining would recompute it), any
    value read outside the partition (``exclude``), and any subtree
    deeper than :data:`MAX_FUSE_DEPTH`.  ``sched`` is topologically
    ordered, so fused depths are known when each op is visited.
    """
    uses: Dict[int, int] = {}
    for op in sched:
        for r in _reads(op):
            if not _is_scalar(r):
                uses[r] = uses.get(r, 0) + 1
    fused: Set[int] = set()
    fdepth: Dict[int, int] = {}
    for op in sched:
        if op[0] not in ("bin", "un", "sel"):
            continue
        out = op[-1]
        depth = 1
        for r in _reads(op):
            if not _is_scalar(r) and r in fused:
                depth = max(depth, 1 + fdepth[r])
        if (
            uses.get(out, 0) == 1
            and out not in exclude
            and depth <= MAX_FUSE_DEPTH
        ):
            fused.add(out)
            fdepth[out] = depth
    return fused


@dataclasses.dataclass
class _Stmt:
    """One emitted statement: a non-fused root op plus its inlined tree."""

    op: tuple
    tree: List[tuple]  # fused constituents then the root, in call order


def _collect(
    op: tuple, prod: Dict[int, tuple], fused: Set[int], tree: List[tuple]
) -> None:
    """Append ``op``'s fused subtree in the order Python evaluates the
    emitted expression: operands left to right, then the call itself."""
    for r in _reads(op):
        if not _is_scalar(r) and r in fused:
            _collect(prod[r], prod, fused, tree)
    tree.append(op)


def _statements(
    sched: List[tuple], prod: Dict[int, tuple], fused: Set[int]
) -> List[_Stmt]:
    stmts: List[_Stmt] = []
    for op in sched:
        if op[0] != "sc" and op[-1] in fused:
            continue
        tree: List[tuple] = []
        _collect(op, prod, fused, tree)
        stmts.append(_Stmt(op=op, tree=tree))
    return stmts


def _stmt_rows(
    stmts: List[_Stmt],
    external: Set[int],
    pool_of: Callable[[int], str] = lambda r: "vec",
) -> Tuple[Dict[int, int], Dict[str, int]]:
    """Rows of every value the statements write, fused nodes included:
    one :func:`~repro.core.passes.assign_rows` step per ufunc call, in
    call order.

    A step reads its operand rows when its call runs (a name or a nested
    ``out=`` call only hands over the row; the values are read by the
    consuming call), so a row stays live until then and a sibling
    subtree evaluated in between cannot be placed on it; dying operands
    are released before the output is placed, so a parent lands in place
    on a child's row (``add(a, b, out=a)``: the exact-overlap elementwise
    case).  A fused ``where(...)`` select owns no row -- it returns a
    fresh array, which is also why a root select may alias its operands
    -- and reads its operand rows at its own step (its ``greater`` runs
    earlier still).  No row is ever held.
    """
    rowless = external | {
        op[-1] for st in stmts for op in st.tree[:-1] if op[0] == "sel"
    }
    return assign_rows(
        [
            (
                [
                    r for r in _reads(op)
                    if not _is_scalar(r) and r not in rowless
                ],
                None if op[0] == "sc" or op[-1] in rowless else op[-1],
                None,
            )
            for st in stmts
            for op in st.tree
        ],
        pool_of,
    )


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------


def _lit(x) -> str:
    """Exact float64 literal.  ``repr(float(x))`` is shortest-round-trip
    (bit-exact on parse); non-finite values need the ``float('...')``
    spelling to be valid source."""
    f = float(x)
    if math.isfinite(f):
        return repr(f)
    return f"float({str(f)!r})"


def _call(
    op: tuple, ex: Callable[[object], str], name_of: Callable[[int], str]
) -> str:
    """The numpy call computing one bin/un/sel op; ``ex`` renders its
    operands.  Ufuncs write their row through ``out=`` and return it, so
    nested calls compose as expressions without allocating; selects are
    pure selection into a fresh array (``where`` has no ``out=``)."""
    tag = op[0]
    if tag == "bin":
        return (
            f"{_UFUNC_NAMES[op[1]]}({ex(op[2])}, {ex(op[3])}, "
            f"out={name_of(op[4])})"
        )
    if tag == "un":
        return f"{_UFUNC_NAMES[op[1]]}({ex(op[2])}, out={name_of(op[3])})"
    return (
        f"where(greater({ex(op[1])}, {_lit(op[4])}), "
        f"{ex(op[2])}, {ex(op[3])})"
    )


def _expr(
    r,
    prod: Dict[int, tuple],
    fused: Set[int],
    name_of: Callable[[int], str],
) -> str:
    """Render a ref as an expression: a literal, a row name, or -- for a
    fused producer -- its call, writing the row :func:`_stmt_rows` gave
    it."""
    if _is_scalar(r):
        return _lit(r)
    if r not in fused:
        return name_of(r)
    return _call(prod[r], lambda q: _expr(q, prod, fused, name_of), name_of)


def _render_arith(
    op: tuple, ex: Callable[[object], str], name_of: Callable[[int], str]
) -> str:
    """One bin/un/sel statement writing its row."""
    call = _call(op, ex, name_of)
    return f"copyto({name_of(op[5])}, {call})" if op[0] == "sel" else call


def _emit_block(lines: List[str], stmts: List[str], indent: str,
                timed: bool, lanevars: Optional[List[str]] = None) -> None:
    """Append ``stmts``; the timed form records each statement's seconds
    over its lane count (``lanevars[i]``: ``n`` rank-1, ``ns`` full)."""
    if not stmts:
        lines.append(f"{indent}pass")
        return
    if not timed:
        for s in stmts:
            lines.append(f"{indent}{s}")
        return
    for i, s in enumerate(stmts):
        lines.append(f"{indent}_t = clock()")
        lines.append(f"{indent}{s}")
        lines.append(f"{indent}rec({i}, clock() - _t, {lanevars[i]})")


_ROOT_KINDS = {"bin": "bin", "un": "un", "sel": "sel",
               "gc": "gather", "gf": "gather", "sc": "scatter"}


def _root_label(op: tuple) -> str:
    tag = op[0]
    if tag in ("bin", "un"):
        return _UFUNC_NAMES[op[1]]
    if tag == "sel":
        return "select"
    if tag == "gc":
        return f"coord[{op[1]},{op[2]}]"
    if tag == "gf":
        return f"{op[1]}[{op[2]},{op[3]}]"
    return f"rhs[{op[2]},{op[3]}]"


def _stmt_costs(
    stmts: List[_Stmt], rank: Dict[int, str], q_refs: Set[int], scenarios: int
) -> Tuple[tuple, ...]:
    """Per-statement ``(kind, label, rb, wb, fl)`` profiler cost slots, in
    units of the *root's* lanes.  A fused statement reports the summed
    bytes/FLOPs of its constituent ops, labelled ``<root>+<k>`` for ``k``
    inlined ops (a solo sweep's program is the all-``vec``, ``S = 1`` case).

    The timed kernel records ``S * n`` lanes for full-rank statements and
    ``n`` for rank-1 ones; a rank-1 op fused inside a full-rank statement
    still executes only ``n`` lanes, so its per-lane contribution scales
    by ``1/S`` to keep total bytes honest.  Reads of ``(S, 1)`` parameter
    rows count zero bytes, like folded scalars (cache-resident).
    """

    def cheap(ref) -> bool:
        return _is_scalar(ref) or ref in q_refs

    costs: List[tuple] = []
    for st in stmts:
        root = st.op
        root_full = root[0] == "sc" or rank.get(root[-1]) == "full"
        rb = wb = fl = 0.0
        for op in st.tree:
            tag = op[0]
            if tag == "bin":
                nv = sum(1 for r in (op[2], op[3]) if not cheap(r))
                orb, owb, ofl = nv * 8.0, 8.0, 1.0
            elif tag == "un":
                orb = 0.0 if cheap(op[2]) else 8.0
                owb, ofl = 8.0, 1.0
            elif tag == "sel":
                nv = sum(1 for r in (op[1], op[2], op[3]) if not cheap(r))
                orb, owb, ofl = nv * 8.0 + 1.0, 9.0, 1.0
            elif tag in ("gc", "gf"):
                orb, owb, ofl = 16.0, 8.0, 0.0
            else:  # sc
                orb = 0.0 if cheap(op[4]) else 8.0
                owb, ofl = 8.0, 0.0
            scale = 1.0
            if root_full and tag != "sc" and rank.get(op[-1]) == "vec":
                scale = 1.0 / scenarios
            rb += orb * scale
            wb += owb * scale
            fl += ofl * scale
        label = _root_label(root)
        if len(st.tree) > 1:
            label += f"+{len(st.tree) - 1}"
        costs.append((_ROOT_KINDS[root[0]], label, rb, wb, fl))
    return tuple(costs)


# ---------------------------------------------------------------------------
# The program
# ---------------------------------------------------------------------------
#
# A recording keeps a batch's varying runtime parameters symbolic as
# ("rp", name, out) ops, giving every SSA value a rank on the lattice
# srow (S, 1) < {vec (lanes,), full (S, lanes)}; a solo sweep's S = 1
# recording is the all-vec case.  The shared front end
# (repro.core.passes.front_end) infers the ranks and peels the all-srow
# prefix into a tiny Python-evaluated parameter stage (MeshBound
# evaluates it into persistent (S, 1) rows Q); this back end adds two
# rank-aware twists:
#
# * slab rows are assigned from two pools -- rank-1 rows BV and (S, n)
#   rows BF -- and every value, fused or not, draws from the pool of
#   its *own* rank, so shared geometry arithmetic runs once per batch at
#   rank-1;
# * scatters reshape by source rank: scalars fill, srow rows broadcast as
#   (S, 1, 1), vec sources broadcast a (cg, vd) block over all scenarios
#   and full sources land per scenario as (S, cg, vd).
#
# The hoisted setup is geometry-only, hence rank-1 for any S.


@dataclasses.dataclass(frozen=True)
class CodegenProgram:
    """A generated, picklable kernel module.

    ``source`` defines three functions: ``setup(C, I, P, T)`` (run once at
    bind time: coordinate gathers and loop-invariant arithmetic at full
    lane width), ``factory(VC, GI, P, Q, SV, BV, BF)`` (returns a
    zero-argument per-chunk closure over prebound chunk views; ``SV[c]``
    is scatter call ``c``'s slice of the deferred values buffer) and the
    profiled twin ``factory_timed(..., clock, rec, n, ns)`` (one clock
    read per statement; ``n``/``ns`` are the chunk's rank-1 / full lane
    counts).  ``param_ops`` is the Python-evaluated ``(S, 1)``
    scenario-row stage in the exact :class:`~repro.core.tape.TapeProgram`
    format.  A solo sweep's program is the ``scenarios = 1``,
    ``velocity_rank = "vec"`` case: no ``Q`` rows, ``nslab_full = 0``.
    Re-compilation is exact: the emission is deterministic, so equal
    configurations produce equal source strings and hit the module-level
    code cache.
    """

    variant: str
    params_key: tuple  # the batch's cache_key()
    scenarios: int
    velocity_rank: str
    vector_dim: int
    nnode_per_element: int
    source: str
    param_ops: Tuple[tuple, ...]
    nq: int
    scatter_calls: Tuple[Tuple[int, int], ...]
    gf_slots: Tuple[int, ...]
    vc_comps: Tuple[int, ...]
    npinned: int
    nsetup_tmp: int
    nslab_vec: int
    nslab_full: int
    stmt_costs: Tuple[tuple, ...]
    report: TapeReport
    c_source: str = ""  # the same statements as one C lane loop (native.py)


def _maybe_dump(stem: str, program: CodegenProgram) -> None:
    """Write ``<stem>.py`` and, when the program has a C form, ``<stem>.c``."""
    outdir = os.environ.get("REPRO_CODEGEN_DUMP")
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    for ext, text in ((".py", program.source), (".c", program.c_source)):
        if text:
            with open(os.path.join(outdir, stem + ext), "w", encoding="utf-8") as fh:
                fh.write(text)
    get_registry().counter("codegen.dumps").inc()


@dataclasses.dataclass
class _MeshLowering:
    """Fusion and statements of both partitions plus the emitted ``setup``
    block (the invariants are geometry-only, hence rank-1 -- identical
    for any S)."""

    pin_index: Dict[int, int]
    nfused: int
    body_fused: Set[int]
    body_stmts: List[_Stmt]
    body_rows: Dict[int, int]  # value id -> row in its rank's pool
    nrows: Dict[str, int]  # rows per pool ("vec", "full")
    setup_lines: List[str]
    nsetup_tmp: int
    gf_slots: List[int]
    vc_comps: List[int]


def _lower_mesh(front: Front) -> _MeshLowering:
    prod = front.prod
    pinned = set(front.pinned)
    pin_index = {r: k for k, r in enumerate(front.pinned)}
    setup_fused = _fuse(front.setup, exclude=pinned)
    body_fused = _fuse(front.body, exclude=set())
    setup_stmts = _statements(front.setup, prod, setup_fused)
    setup_rows, n = _stmt_rows(setup_stmts, pinned)

    def name(r: int) -> str:
        return f"P[{pin_index[r]}]" if r in pinned else f"T[{setup_rows[r]}]"

    setup_lines = []
    for st in setup_stmts:
        op = st.op
        if op[0] == "gc":
            setup_lines.append(f"take(C[{op[2]}], I[{op[1]}], out={name(op[3])})")
        else:
            setup_lines.append(_render_arith(
                op, lambda r: _expr(r, prod, setup_fused, name), name
            ))
    gathers = [op for op in front.body if op[0] == "gf"]
    body_stmts = _statements(front.body, prod, body_fused)
    body_rows, nrows = _stmt_rows(
        body_stmts, front.external(), front.rank.__getitem__
    )
    return _MeshLowering(
        pin_index=pin_index,
        nfused=len(setup_fused) + len(body_fused),
        body_fused=body_fused,
        body_stmts=body_stmts,
        body_rows=body_rows,
        nrows=nrows,
        setup_lines=setup_lines,
        nsetup_tmp=n.get("vec", 0),
        gf_slots=sorted({op[2] for op in gathers}),
        vc_comps=sorted({op[3] for op in gathers}),
    )


def _module(header: str, setup_lines: List[str], prologue: List[str],
            body_lines: List[str], lanevars: List[str]) -> str:
    """Assemble ``setup`` / ``factory`` / ``factory_timed`` source."""
    args = "VC, GI, P, Q, SV, BV, BF"
    lines = [
        "# generated by repro.core.codegen -- do not edit", header, "", "",
        "def setup(C, I, P, T):",
    ]
    _emit_block(lines, setup_lines, "    ", timed=False)
    for sig, timed in ((f"factory({args})", False),
                       (f"factory_timed({args}, clock, rec, n, ns)", True)):
        lines += ["", "", f"def {sig}:"]
        lines += [f"    {p}" for p in prologue]
        lines += ["", "    def kernel():"]
        _emit_block(lines, body_lines, "        ", timed, lanevars)
        lines += ["", "    return kernel"]
    return "\n".join(lines) + "\n"


def generate_program(
    variant_name: str,
    vector_dim: int,
    batch,
    nnode_per_element: int = 4,
    velocity_rank: str = "vec",
) -> CodegenProgram:
    """Lower one variant to a generated source module for ``batch`` (a
    :class:`~repro.core.batch.ScenarioBatch`; a solo sweep's is the
    ``S = 1`` batch): its varying parameters symbolic and, for
    ``velocity_rank="full"``, its velocities per scenario."""
    from . import native

    vd = int(vector_dim)
    S = batch.size
    with get_tracer().span(
        "codegen.generate", variant=variant_name.upper(), vector_dim=vd, scenarios=S
    ):
        variant, recorder = _record(variant_name, batch, nnode_per_element)
        front = front_end(recorder, velocity_rank, hoist=True)
        low = _lower_mesh(front)
        prod, fused, pin_index = front.prod, low.body_fused, low.pin_index
        rank, q_of = front.rank, front.q_of
        body_rows, n = low.body_rows, low.nrows
        nslab_vec, nslab_full = n.get("vec", 0), n.get("full", 0)
        gi_index = {slot: k for k, slot in enumerate(low.gf_slots)}

        def name(r: int) -> str:
            if r in pin_index:
                return f"p{pin_index[r]}"
            if r in q_of:
                return f"q{q_of[r]}"
            return f"{'bv' if rank[r] == 'vec' else 'bf'}{body_rows[r]}"

        def ex(r):
            return _expr(r, prod, fused, name)

        gather = "take(vc{c}, gi{k}, axis=1, out={dst})" \
            if velocity_rank == "full" else "take(vc{c}, gi{k}, out={dst})"
        body_lines: List[str] = []
        lanevars: List[str] = []
        for st in low.body_stmts:
            op = st.op
            tag = op[0]
            if tag == "gf":
                line = gather.format(
                    c=op[3], k=gi_index[op[2]], dst=name(op[4])
                )
            elif tag != "sc":
                line = _render_arith(op, ex, name)
            else:
                dst = f"s{op[1]}"
                src = op[4]
                if _is_scalar(src):
                    line = f"{dst}[...] = {_lit(src)}"
                elif src in q_of:
                    line = f"copyto({dst}, q{q_of[src]}.reshape({S}, 1, 1))"
                elif rank[src] == "full":
                    line = (
                        f"copyto({dst}, {ex(src)}.reshape({S}, -1, {vd}))"
                    )
                else:
                    line = f"copyto({dst}, {ex(src)}.reshape(-1, {vd}))"
            body_lines.append(line)
            if tag == "sc" or rank[op[-1]] == "full":
                lanevars.append("ns")
            else:
                lanevars.append("n")

        header = (
            f"variant={variant.name} vector_dim={vd} scenarios={S} "
            f"velocity_rank={velocity_rank} stmts={len(low.body_stmts)} "
            f"rows=vec:{nslab_vec},full:{nslab_full} "
            f"param_ops={len(front.param_ops)} pinned={len(pin_index)} "
            f"fused={low.nfused}"
        )
        source = _module(
            "# " + header, low.setup_lines,
            [f"vc{c} = VC[{c}]" for c in low.vc_comps]
            + [f"gi{k} = GI[{k}]" for k in range(len(low.gf_slots))]
            + [f"p{k} = P[{k}]" for k in range(len(pin_index))]
            + [f"q{k} = Q[{k}]" for k in range(len(q_of))]
            + [f"s{j} = SV[{j}]" for j in range(len(front.scatter_calls))]
            + [f"bv{r} = BV[{r}]" for r in range(nslab_vec)]
            + [f"bf{r} = BF[{r}]" for r in range(nslab_full)],
            body_lines, lanevars,
        )
        program = CodegenProgram(
            variant=variant.name,
            params_key=batch.cache_key(),
            scenarios=S,
            velocity_rank=velocity_rank,
            vector_dim=vd,
            nnode_per_element=nnode_per_element,
            source=source,
            param_ops=front.param_ops,
            nq=len(q_of),
            scatter_calls=front.scatter_calls,
            gf_slots=tuple(low.gf_slots),
            vc_comps=tuple(low.vc_comps),
            npinned=len(pin_index),
            nsetup_tmp=low.nsetup_tmp,
            nslab_vec=nslab_vec,
            nslab_full=nslab_full,
            stmt_costs=_stmt_costs(low.body_stmts, rank, set(q_of), S),
            report=_make_report(
                variant.name, front, nslab_vec + nslab_full, S, low.nfused
            ),
            c_source=native.emit_c(
                low, front, vector_dim=vd, scenarios=S,
                full_velocity=velocity_rank == "full", header=header,
            ),
        )
    get_registry().counter("codegen.generates").inc()
    _maybe_dump(f"{variant.name}_vd{vd}" + f"_S{S}" * (S > 1), program)
    return program


# ---------------------------------------------------------------------------
# exec-compilation (module-level source cache)
# ---------------------------------------------------------------------------


def _load(source: str, filename: str) -> Dict[str, object]:
    """Exec a generated module into a fresh namespace.

    The compiled code object is cached on the exact source string, so a
    plan-cache hit (or a second program with the same source) never pays
    ``compile`` twice in one process.
    """
    registry = get_registry()
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, filename, "exec")
        _CODE_CACHE[source] = code
        registry.counter("codegen.source_compiles").inc()
    else:
        registry.counter("codegen.source_reuses").inc()
    ns = dict(_NAMESPACE)
    exec(code, ns)
    return ns


# ---------------------------------------------------------------------------
# The bound kernel
# ---------------------------------------------------------------------------


def _run_slab(kerns: list, form) -> None:
    t0 = time.perf_counter()
    for kern in kerns:
        kern()
    form.spent += time.perf_counter() - t0


def stop_builds() -> None:
    """Terminate pending compiler children (the server's drain) without
    importing the native module when nothing ever loaded it."""
    native = sys.modules.get(__package__ + ".native")
    if native is not None:
        native.stop_builds()


class GeneratedKernel(MeshBound):
    """Executable generated module bound to one ``(plan, packing)`` pair.

    Mirrors :class:`~repro.core.tape.CompiledTape`'s binding (the same
    :class:`~repro.core.arena.MeshBound`: gather index layout, shared plan
    scatter pattern, ``(S, 1)`` parameter rows refreshed every sweep,
    group-major deferred values flush) but owns its values/velocity
    buffers, so a coexisting compiled tape of the same configuration is
    never mutated.  ``setup`` runs once here at full lane width, filling
    the pinned invariants; a sweep then runs one prebound zero-argument
    closure per chunk (cached per ``(chunk_groups, nslabs)``,
    slab-striped across threads) plus the serial flush -- or, once
    adopted, the C form (:mod:`repro.core.native`), one call per group
    range of ``_cuts``.  Right after setup the interface spill
    (:func:`~repro.parallel.threads.interface_spill`) redirects ``_idx``:
    ``_spill`` holds each spill row's node, whose velocity columns
    ``_vcols`` copies every sweep and whose accumulator row the flush
    replays.
    """

    _span = "codegen.execute"
    _mode = "codegen"

    def __init__(self, program: CodegenProgram, plan, packing) -> None:
        super().__init__(program, plan, packing)
        if self.vector_dim != program.vector_dim:
            raise ValueError(
                f"program generated for vector_dim={program.vector_dim}, "
                f"packing has {self.vector_dim}"
            )
        ns = _load(program.source, f"<codegen:{program.variant}:vd{self.vector_dim}:S{self.S}>")
        self._factory = ns["factory"]
        self._factory_timed = ns["factory_timed"]
        # run the hoisted setup once: coordinate gathers and
        # loop-invariant arithmetic at full lane width (rank-1 for any
        # S); the transient rows are freed immediately after.
        self._pinned = aligned_empty((max(program.npinned, 1), self.nlane))
        ns["setup"](
            self._ccols, self._idx, self._pinned,
            aligned_empty((max(program.nsetup_tmp, 1), self.nlane)),
        )
        #: (chunk_groups, nslabs) -> list-per-slab of chunk closures
        self._chunk_cache: Dict[Tuple[int, int], list] = {}
        self._lane_bytes = 8 * (program.nslab_vec + self.S * program.nslab_full)
        # the C sweep's group ranges, made disjoint by an interface spill (slot-major
        # scatter calls: a group adds a node's entries in (slot, lane) order)
        calls = list(program.scatter_calls)
        self._cuts = self._range_cuts() if calls == sorted(set(calls)) else [0, self.ngroups]
        self._spill = interface_spill(self._idx, self._cuts, self.vector_dim,
                                      int(plan.mesh.nelem), self.nnode)
        self._spill_at = (3 * self._spill[:, None] + np.arange(3)).ravel()
        self._vcols = aligned_empty(self._vcols.shape[:-1] + (self.nnode + len(self._spill),))
        from .native import NativeForm

        self._native = NativeForm(self)

    def _range_cuts(self) -> List[int]:
        """Group cuts of the C sweep's ranges: one range per CPU, each at least
        one arena chunk (a small mesh is one range)."""
        k = max(1, min(cpu_count(), self.ngroups // self._budget_cg()))
        return [self.ngroups * i // k for i in range(k + 1)]

    def _default_cg(self, nthreads: int) -> int:
        """A chunk is one call whatever its size: always the arena budget."""
        return self._budget_cg()

    def _build_closures(self, cg: int, nslabs: int, profile=None) -> List[list]:
        S = self.S
        program = self.program
        vd = self.vector_dim
        slabs_v = aligned_empty((nslabs, program.nslab_vec, cg * vd))
        slabs_f = aligned_empty((nslabs, program.nslab_full, S * cg * vd))
        per_slab: List[list] = [[] for _ in range(nslabs)]
        factory = self._factory if profile is None else self._factory_timed
        for i, (g0, g1) in enumerate(self._chunks(cg)):
            s = i % nslabs
            lo, n = g0 * vd, (g1 - g0) * vd
            GI = [self._idx[slot, lo:lo + n] for slot in program.gf_slots]
            P = [self._pinned[k, lo:lo + n] for k in range(program.npinned)]
            SV = [self._values[..., g0:g1, c, :] for c in range(self._ncalls)]
            BV = [slabs_v[s, r, :n] for r in range(program.nslab_vec)]
            BF = [slabs_f[s, r, :S * n].reshape(S, n) for r in range(program.nslab_full)]
            check_aligned([*GI, *P, *SV, *BV, *BF], vd)
            timing = () if profile is None else (time.perf_counter, profile.record, n, S * n)
            per_slab[s].append(factory(self._vcols, GI, P, self._Q, SV, BV, BF, *timing))
        return per_slab

    def _tasks(self, cg: int, nslabs: int, profile) -> list:
        """The adopted C form's sweep (:mod:`repro.core.native`; profiled
        sweeps stay on the Python source, deferred), else the Python form's."""
        self._scatter = "deferred"
        tasks = None if profile is not None else self._native.sweep_tasks(
            self, partial(self._python_tasks, cg, nslabs)
        )
        span = get_tracer().current
        if span is not None:
            span.attributes.update(
                {"native": False, "scatter": "deferred"} if tasks is None else
                {"native": True, "scatter": "fused", "chunks": 0, "arena_bytes": 0})
        return self._python_tasks(cg, nslabs, profile) if tasks is None else tasks

    def _python_tasks(self, cg: int, nslabs: int, profile=None) -> list:
        """One task per slab: chunk ``i`` runs on slab ``i % nslabs`` and
        a slab's chunks run sequentially, so concurrent slabs never share
        rows.  Profiled closures are bound per sweep."""
        if profile is not None:
            per_slab = self._build_closures(cg, nslabs, profile)
        else:
            per_slab = self._chunk_cache.get((cg, nslabs))
            if per_slab is None:
                per_slab = self._build_closures(cg, nslabs)
                self._chunk_cache[(cg, nslabs)] = per_slab
        return [partial(_run_slab, kerns, self._native) for kerns in per_slab]

    def build_native(self, wait: bool = True) -> bool:
        """Build the C form now instead of after ``BUILD_AFTER_S`` of
        sweeps; the next sweep adopts it.  ``False``: no compiler."""
        with self.lock:
            return self._native.build(wait)


def generated_kernel(
    plan, variant_name: str, vector_dim: int, batch, velocity_rank: str = "vec"
) -> GeneratedKernel:
    """The plan-cached :class:`GeneratedKernel` for one configuration,
    stored next to the compiled tapes under the same
    :func:`~repro.core.tape.tape_cache_key`."""
    key = tape_cache_key(variant_name, vector_dim, batch, velocity_rank)
    return plan_cached(plan, "codegen", key, vector_dim, batch, lambda packing: GeneratedKernel(
        generate_program(key[0], vector_dim, batch, velocity_rank=velocity_rank),
        plan, packing))
