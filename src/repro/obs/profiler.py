"""Op-level tape profiler: the reproduction's software LIKWID.

The paper's performance argument is *measured*: LIKWID/Nsight counter
groups (Tables I-II) and measured roofline placement (Figure 3) are what
prove the restructured kernels reach the memory-bandwidth limit.  This
module plays that role for the Python reproduction.  A
:class:`TapeProfiler` is handed to the sweeps of the bound kernels
(:class:`repro.core.tape.CompiledTape`,
:class:`repro.core.codegen.GeneratedKernel`) and records, **per tape op**:

* wall time (``perf_counter`` around the exact same ufunc call the
  unprofiled executor makes -- results stay bitwise identical);
* derived bytes read/written and FLOPs from the op table and the lane
  width (float64 lanes, 8 B/element) -- software counters, since Python
  cannot read the memory controller.

:meth:`TapeProfile.phases` sums them per phase (gather / compute / select /
store / scatter / flush); ``total_bytes`` is checked against the
*predicted* traffic of :meth:`repro.core.tape.TapeReport.predicted_bytes`.

A sweep's profiler is ``None`` (the default everywhere: the executors take
the original code path, no clock read) or a :class:`TapeProfiler`; the
profiled replay issues the *identical* op stream into the identical
buffers, so profiled assemblies are bitwise equal to unprofiled ones.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple

__all__ = [
    "OP_PHASES",
    "TapeProfile",
    "TapeProfiler",
    "op_costs_from_program",
]

#: bytes per float64 lane element
_F8 = 8.0

#: profiler op kind -> attribution phase
OP_PHASES = {
    "bin": "compute",
    "un": "compute",
    "sel": "select",
    "gather": "gather",
    "scatter": "scatter",
    "store": "store",
    "flush": "flush",
}

#: phase ordering for stable reports
PHASE_ORDER = ("gather", "compute", "select", "store", "scatter", "flush")


def _is_vec(ref: Any) -> bool:
    """A lowered tape operand is lane-wide iff it is a tagged arena row
    (``("v", row)`` rank-1, ``("f", row)`` per-scenario).  Folded scalars
    and the tiny ``("q", k)`` scenario rows are register/cache resident
    and cost no arena traffic."""
    return isinstance(ref, tuple) and ref[0] != "q"


def op_costs_from_program(program) -> List[Tuple[str, str, float, float, float]]:
    """Per-lane ``(kind, label, bytes_read, bytes_written, flops)`` for
    every lowered per-sweep op of a :class:`repro.core.tape.TapeProgram`.

    The accounting mirrors what each executor op actually moves per lane:

    * binop: one 8 B read per *vector* operand (folded scalars live in
      registers), one 8 B write;
    * unop: as binop with one operand;
    * select: vector operands of ``(x, a, b)`` plus the 1 B boolean mask
      written by the compare and read back by the masked copy;
    * gather: the 8 B int64 index plus the 8 B gathered value read, one
      8 B write into the arena;
    * scatter: one 8 B read of the source (when vector), one 8 B write
      into the deferred values buffer.

    Every arithmetic op costs 1 Flop per lane (the DSL has no fused op),
    matching :data:`repro.core.dsl._FLOP_COST`.  Lanes are
    *scenario-lanes*: the kernel records ``n`` lanes for a rank-1
    (shared) op and ``S * n`` for a full-rank one, so ``lanes * (rb +
    wb)`` stays the actual traffic either way.
    """
    costs: List[Tuple[str, str, float, float, float]] = []
    for op in program.ops:
        code = op[0]
        if code == 0:  # (0, ufunc, a, b, out)
            nvec = sum(1 for r in (op[2], op[3]) if _is_vec(r))
            costs.append(("bin", op[1], nvec * _F8, _F8, 1.0))
        elif code == 1:  # (1, ufunc, a, out)
            nvec = 1 if _is_vec(op[2]) else 0
            costs.append(("un", op[1], nvec * _F8, _F8, 1.0))
        elif code == 2:  # (2, x, a, b, thresh, out)
            nvec = sum(1 for r in (op[1], op[2], op[3]) if _is_vec(r))
            costs.append(("sel", "select", nvec * _F8 + 1.0, _F8 + 1.0, 1.0))
        elif code == 3:  # (3, slot, comp, out)
            costs.append(
                ("gather", f"coord[{op[1]},{op[2]}]", 2 * _F8, _F8, 0.0)
            )
        elif code == 4:  # (4, field, slot, comp, out)
            costs.append(
                ("gather", f"{op[1]}[{op[2]},{op[3]}]", 2 * _F8, _F8, 0.0)
            )
        elif code == 5:  # (5, call, slot, comp, src)
            nvec = 1 if _is_vec(op[4]) else 0
            costs.append(
                ("scatter", f"rhs[{op[2]},{op[3]}]", nvec * _F8, _F8, 0.0)
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown lowered op code {code!r}")
    return costs


class TapeProfile:
    """Per-op accumulators of one profiled kernel configuration.

    A profile accumulates over every execution (and every slab, in the
    threaded executor -- :meth:`record` takes a lock, profiling runs are
    not the hot path).  Op slots are fixed at construction from the
    program's cost table (:func:`op_costs_from_program` or a generated
    program's ``stmt_costs``).
    """

    def __init__(self, op_costs: List[Tuple[str, str, float, float, float]], report) -> None:
        self.report = report  # TapeReport / CodegenReport of the bound program
        self._lock = threading.Lock()
        self.kinds: List[str] = [c[0] for c in op_costs]
        self.labels: List[str] = [c[1] for c in op_costs]
        self._rb: List[float] = [float(c[2]) for c in op_costs]  # per-lane bytes read
        self._wb: List[float] = [float(c[3]) for c in op_costs]  # per-lane bytes written
        self._fl: List[float] = [float(c[4]) for c in op_costs]  # per-lane flops
        self.seconds: List[float] = [0.0] * len(op_costs)
        self.lanes: List[float] = [0.0] * len(op_costs)
        self.executions = 0
        self.flush_seconds = 0.0
        self.flush_bytes = 0.0

    # -- recording -------------------------------------------------------
    def record(self, index: int, seconds: float, lanes: int) -> None:
        """Accumulate one timed execution of op ``index`` over ``lanes``."""
        with self._lock:
            self.seconds[index] += seconds
            self.lanes[index] += lanes

    def record_flush(self, seconds: float, bytes_moved: float) -> None:
        with self._lock:
            self.flush_seconds += seconds
            self.flush_bytes += bytes_moved

    def finish_execution(self) -> None:
        with self._lock:
            self.executions += 1

    # -- totals ----------------------------------------------------------
    def op_bytes(self, index: int) -> float:
        return self.lanes[index] * (self._rb[index] + self._wb[index])

    def op_flops(self, index: int) -> float:
        return self.lanes[index] * self._fl[index]

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds) + self.flush_seconds

    @property
    def total_bytes(self) -> float:
        """Derived op traffic (excluding the scatter flush -- compared
        against :meth:`~repro.core.tape.TapeReport.predicted_bytes`)."""
        return sum(self.op_bytes(i) for i in range(len(self.kinds)))

    @property
    def total_flops(self) -> float:
        return sum(self.op_flops(i) for i in range(len(self.kinds)))

    def phases(self) -> Dict[str, Dict[str, float]]:
        """Per-phase seconds/bytes/flops/intensity (gather / compute /
        select / store / scatter / flush)."""
        agg: Dict[str, Dict[str, float]] = {}
        for i, kind in enumerate(self.kinds):
            phase = OP_PHASES.get(kind, "compute")
            row = agg.setdefault(
                phase, {"seconds": 0.0, "bytes": 0.0, "flops": 0.0, "ops": 0}
            )
            row["seconds"] += self.seconds[i]
            row["bytes"] += self.op_bytes(i)
            row["flops"] += self.op_flops(i)
            row["ops"] += 1
        if self.flush_seconds or self.flush_bytes:
            agg["flush"] = {
                "seconds": self.flush_seconds,
                "bytes": self.flush_bytes,
                "flops": 0.0,
                "ops": 1,
            }
        for row in agg.values():
            row["intensity"] = row["flops"] / row["bytes"] if row["bytes"] else 0.0
        return {p: agg[p] for p in PHASE_ORDER if p in agg}


class TapeProfiler:
    """Collects one :class:`TapeProfile` per profiled kernel configuration,
    keyed ``(variant, vector_dim, mode, executor, S)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.profiles: Dict[Tuple[str, int, str, str, int], TapeProfile] = {}

    def for_program(self, program, vector_dim: int, mode: str, executor: str) -> TapeProfile:
        """Profile of one bound kernel's sweeps: op-level for a replayed
        :class:`~repro.core.tape.TapeProgram` (``mode="compiled"``),
        statement-level for a :class:`~repro.core.codegen.CodegenProgram`
        (``mode="codegen"``), whose ``stmt_costs`` slots carry the
        *summed* bytes/FLOPs of each fused statement's constituent ops --
        phase attribution stays comparable with the replayed tape of the
        same variant while the dispatch-overhead win shows up as fewer,
        longer op rows.  The batch size ``S`` is part of every key, so
        S = 1 and S = 16 sweeps of one configuration accumulate
        separately; the kernels record honest lane counts (``n`` for
        shared rank-1 ops, ``S * n`` for full-rank ones).
        """
        key = (program.variant, int(vector_dim), mode, executor, int(program.scenarios))
        with self._lock:
            prof = self.profiles.get(key)
            if prof is None:
                costs = (
                    list(program.stmt_costs) if mode == "codegen"
                    else op_costs_from_program(program)
                )
                prof = self.profiles[key] = TapeProfile(costs, program.report)
            return prof
