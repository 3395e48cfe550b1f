"""Op-level tape profiler: the reproduction's software LIKWID.

The paper's performance argument is *measured*: LIKWID/Nsight counter
groups (Tables I-II) and measured roofline placement (Figure 3) are what
prove the restructured kernels reach the memory-bandwidth limit.  This
module plays that role for the Python reproduction.  A
:class:`TapeProfiler` attaches to the bound kernels
(:class:`repro.core.tape.CompiledTape`,
:class:`repro.core.codegen.GeneratedKernel` -- mesh-wide or a pool
worker's chunk) and records, **per tape op**:

* wall time (``perf_counter`` around the exact same ufunc call the
  unprofiled executor makes -- results stay bitwise identical);
* derived bytes read/written and FLOPs from the op table and the lane
  width (float64 lanes, 8 B/element) -- software counters, since Python
  cannot read the memory controller.

From those, per-op and per-phase arithmetic intensity and achieved
GFlop/s / GB/s follow, and the residual against the *predicted* traffic
of :meth:`repro.core.tape.TapeReport.predicted_bytes` checks the cost
model.

Zero-cost contract
------------------
The default everywhere is :data:`NULL_PROFILER` (``enabled = False``):
instrumented executors check one attribute and take the original code
path, exactly like :data:`repro.obs.spans.NULL_TRACER`.  When enabled,
the profiled replay issues the *identical* op stream into the identical
buffers, so profiled assemblies are bitwise equal to unprofiled ones.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "OP_PHASES",
    "NULL_PROFILER",
    "NullProfiler",
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
    """Per-op accumulators of one profiled tape configuration.

    One profile is keyed by ``(variant, vector_dim, mode, executor)`` and
    accumulates over every execution (and every chunk, in the threaded
    executor -- :meth:`record` takes a lock, profiling runs are not the
    hot path).  Op slots are fixed at construction from the program's
    cost table (:func:`op_costs_from_program` or a generated program's
    ``stmt_costs``).
    """

    def __init__(
        self,
        variant: str,
        vector_dim: int,
        mode: str,
        executor: str = "serial",
        op_costs: Optional[List[Tuple[str, str, float, float, float]]] = None,
        report=None,
        scenarios: int = 1,
    ) -> None:
        self.variant = variant
        self.vector_dim = int(vector_dim)
        self.mode = mode
        self.executor = executor
        #: batch size of a scenario-batched profile (1 for a solo sweep);
        #: part of the profile key so S=1 and S=16 runs never mix
        self.scenarios = int(scenarios)
        self.report = report  # TapeReport of the compiled program, if any
        self._lock = threading.Lock()
        costs = list(op_costs or ())
        self.kinds: List[str] = [c[0] for c in costs]
        self.labels: List[str] = [c[1] for c in costs]
        self._rb: List[float] = [float(c[2]) for c in costs]  # per-lane bytes read
        self._wb: List[float] = [float(c[3]) for c in costs]  # per-lane bytes written
        self._fl: List[float] = [float(c[4]) for c in costs]  # per-lane flops
        self.seconds: List[float] = [0.0] * len(costs)
        self.lanes: List[float] = [0.0] * len(costs)
        self.calls: List[int] = [0] * len(costs)
        self.executions = 0
        self.flush_seconds = 0.0
        self.flush_bytes = 0.0

    # -- recording -------------------------------------------------------
    def record(self, index: int, seconds: float, lanes: int) -> None:
        """Accumulate one timed execution of op ``index`` over ``lanes``."""
        with self._lock:
            self.seconds[index] += seconds
            self.lanes[index] += lanes
            self.calls[index] += 1

    def record_flush(self, seconds: float, bytes_moved: float = 0.0) -> None:
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

    @property
    def intensity(self) -> float:
        """Measured arithmetic intensity (Flop/B) over the op traffic."""
        b = self.total_bytes
        return self.total_flops / b if b else 0.0

    @property
    def gflops(self) -> float:
        s = self.total_seconds
        return self.total_flops / s / 1e9 if s else 0.0

    @property
    def gbs(self) -> float:
        s = self.total_seconds
        return (self.total_bytes + self.flush_bytes) / s / 1e9 if s else 0.0

    # -- aggregation -----------------------------------------------------
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

    def op_rows(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-op rows sorted by accumulated wall time (hottest first)."""
        rows = []
        for i in range(len(self.kinds)):
            b = self.op_bytes(i)
            f = self.op_flops(i)
            rows.append(
                {
                    "index": i,
                    "kind": self.kinds[i],
                    "label": self.labels[i],
                    "phase": OP_PHASES.get(self.kinds[i], "compute"),
                    "calls": self.calls[i],
                    "seconds": self.seconds[i],
                    "bytes": b,
                    "flops": f,
                    "intensity": f / b if b else 0.0,
                }
            )
        rows.sort(key=lambda r: r["seconds"], reverse=True)
        return rows[:top] if top is not None else rows

    # -- flamegraph ------------------------------------------------------
    def collapsed(self, root: str = "tape") -> Dict[str, int]:
        """Collapsed-stack lines (folded flamegraph, microsecond weights).

        Stack shape: ``root;<variant>@vd<N>;<phase>;<label>#<index>``.
        The Brendan-Gregg folded format is importable by speedscope and
        every flamegraph renderer.
        """
        base = f"{root};{self.variant}@vd{self.vector_dim}[{self.mode}]"
        if self.scenarios > 1:
            base += f"xS{self.scenarios}"
        out: Dict[str, int] = {}
        for i in range(len(self.kinds)):
            usec = int(round(self.seconds[i] * 1e6))
            if usec <= 0:
                continue
            phase = OP_PHASES.get(self.kinds[i], "compute")
            stack = f"{base};{phase};{self.labels[i]}#{i}"
            out[stack] = out.get(stack, 0) + usec
        if self.flush_seconds > 0:
            out[f"{base};flush;bincount"] = int(round(self.flush_seconds * 1e6))
        return out

    def per_scenario_rows(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-op rows attributed to **one** scenario of a batched profile.

        Batched ops execute once for the whole batch, so each scenario is
        attributed ``1/S`` of every op's seconds/bytes/flops -- shared
        rank-1 work is amortized, full-rank work divides back to exactly
        what a serial solve of one scenario would have moved.  For a
        serial profile (``scenarios == 1``) this is :meth:`op_rows`.
        """
        rows = self.op_rows(top)
        s = float(max(self.scenarios, 1))
        for row in rows:
            row["seconds"] /= s
            row["bytes"] /= s
            row["flops"] /= s
            row["scenarios"] = self.scenarios
        return rows

    # -- identity / serialization ----------------------------------------
    def key(self) -> Tuple:
        """Profile identity.  Serial profiles keep the historical
        4-tuple; batched profiles append their batch size so S=1 and
        S=16 runs of the same configuration never share a profile."""
        base = (self.variant, self.vector_dim, self.mode, self.executor)
        return base if self.scenarios == 1 else base + (self.scenarios,)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant": self.variant,
            "vector_dim": self.vector_dim,
            "mode": self.mode,
            "executor": self.executor,
            "scenarios": self.scenarios,
            "kinds": list(self.kinds),
            "labels": list(self.labels),
            "rb": list(self._rb),
            "wb": list(self._wb),
            "fl": list(self._fl),
            "seconds": list(self.seconds),
            "lanes": list(self.lanes),
            "calls": list(self.calls),
            "executions": self.executions,
            "flush_seconds": self.flush_seconds,
            "flush_bytes": self.flush_bytes,
        }

    def summary(self) -> str:
        batch = f" S={self.scenarios}" if self.scenarios > 1 else ""
        lines = [
            f"profile {self.variant} vd={self.vector_dim} "
            f"mode={self.mode} executor={self.executor}{batch}: "
            f"{self.executions} executions, "
            f"{self.total_seconds * 1e3:.2f} ms, "
            f"{self.total_bytes / 1e6:.1f} MB, "
            f"{self.total_flops / 1e6:.1f} MFlop "
            f"(AI {self.intensity:.3f} F/B, {self.gflops:.2f} GF/s)",
        ]
        for phase, row in self.phases().items():
            lines.append(
                f"  {phase:>8s}: {row['seconds'] * 1e3:8.2f} ms  "
                f"{row['bytes'] / 1e6:9.1f} MB  "
                f"AI {row['intensity']:.3f}"
            )
        return "\n".join(lines)


class TapeProfiler:
    """Collects :class:`TapeProfile` instances across executions.

    One profiler serves any number of kernels/variants; a bound kernel
    asks for its profile with :meth:`for_program`, keyed by
    ``(variant, vector_dim, mode, executor)``.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.profiles: Dict[Tuple, TapeProfile] = {}

    def _get(self, key, factory) -> TapeProfile:
        with self._lock:
            prof = self.profiles.get(key)
            if prof is None:
                prof = factory()
                self.profiles[key] = prof
            return prof

    def for_program(
        self, program, vector_dim: int, mode: str, executor: str = "serial"
    ) -> TapeProfile:
        """Profile of one bound kernel's sweeps: op-level for a replayed
        :class:`~repro.core.tape.TapeProgram` (``mode="compiled"``),
        statement-level for a :class:`~repro.core.codegen.CodegenProgram`
        (``mode="codegen"``), whose ``stmt_costs`` slots carry the
        *summed* bytes/FLOPs of each fused statement's constituent ops --
        phase attribution stays comparable with the replayed tape of the
        same variant while the dispatch-overhead win shows up as fewer,
        longer op rows.

        Keyed ``(variant, vector_dim, mode, executor)``, extended by the
        batch size when it is not 1 (:meth:`TapeProfile.key`) so S=1 and
        S=16 sweeps of one configuration accumulate separately.  The
        kernels record honest lane counts (``n`` for shared rank-1 ops,
        ``S * n`` for full-rank ones), and
        :meth:`TapeProfile.per_scenario_rows` divides back to one
        scenario's share.
        """
        key = (program.variant, int(vector_dim), mode, executor)
        if program.scenarios != 1:
            key += (program.scenarios,)
        return self._get(
            key,
            lambda: TapeProfile(
                program.variant,
                vector_dim,
                mode,
                executor,
                op_costs=(
                    list(program.stmt_costs) if mode == "codegen"
                    else op_costs_from_program(program)
                ),
                report=program.report,
                scenarios=program.scenarios,
            ),
        )

    # -- export ----------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [p.to_dict() for p in self.profiles.values()]

    def collapsed(self) -> Dict[str, int]:
        """Folded flamegraph lines over every collected profile."""
        out: Dict[str, int] = {}
        for prof in self.profiles.values():
            for stack, usec in prof.collapsed().items():
                out[stack] = out.get(stack, 0) + usec
        return out


class NullProfiler:
    """Disabled profiler: executors check ``enabled`` and take the
    original unwrapped code path -- zero clock reads, zero allocation."""

    enabled = False
    profiles: Dict = {}

    def for_program(self, program, vector_dim, mode, executor="serial"):
        raise RuntimeError("NullProfiler cannot profile; check .enabled first")

    def snapshot(self) -> List[Dict[str, Any]]:
        return []

    def collapsed(self) -> Dict[str, int]:
        return {}


#: Process-wide disabled profiler (the default everywhere).
NULL_PROFILER = NullProfiler()
