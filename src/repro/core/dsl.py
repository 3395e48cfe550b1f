"""Kernel DSL: one kernel source, two execution modes.

The central trick of this reproduction mirrors the paper's central theme
(one source, multiple targets): every assembly variant is written **once**
against the small backend interface below, and then

* :class:`NumpyBackend` *executes* it -- every DSL scalar is a numpy vector
  over the ``VECTOR_DIM`` lanes of an element group, so the kernel really
  assembles the Navier-Stokes RHS (this is what correctness tests and the
  wall-clock benchmarks run); and
* :class:`TracingBackend` *measures* it -- it counts floating-point
  operations and loads/stores by storage class, estimates register pressure
  from value liveness, and records the per-lane memory-access pattern that
  the GPU/CPU machine models replay through their cache hierarchies to
  produce the paper's Tables I and II.

Because both backends run the *same* kernel code, the counters respond to
the R/S/P source transformations exactly the way the hardware counters
responded in the paper: that correspondence is the point of the experiment.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .storage import AccessKind, MemoryEvent, Storage, TempSpec

__all__ = [
    "Value",
    "Backend",
    "NumpyBackend",
    "TracingBackend",
    "Temp",
    "KernelContext",
    "TraceReport",
]

Number = Union[int, float]


class Value:
    """A lane-wide scalar inside a kernel.

    Supports the arithmetic the assembly needs; every operation is routed
    through the owning backend so it can be executed or counted.
    """

    __slots__ = ("backend", "payload", "depth")

    def __init__(self, backend: "Backend", payload, depth: int = 0) -> None:
        self.backend = backend
        self.payload = payload
        self.depth = depth

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other) -> "Value":
        if isinstance(other, Value):
            return other
        return self.backend.const(other)

    def __add__(self, other):
        return self.backend.binop("add", self, self._coerce(other))

    def __radd__(self, other):
        return self.backend.binop("add", self._coerce(other), self)

    def __sub__(self, other):
        return self.backend.binop("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return self.backend.binop("sub", self._coerce(other), self)

    def __mul__(self, other):
        return self.backend.binop("mul", self, self._coerce(other))

    def __rmul__(self, other):
        return self.backend.binop("mul", self._coerce(other), self)

    def __truediv__(self, other):
        return self.backend.binop("div", self, self._coerce(other))

    def __rtruediv__(self, other):
        return self.backend.binop("div", self._coerce(other), self)

    def __neg__(self):
        return self.backend.unop("neg", self)

    def sqrt(self) -> "Value":
        return self.backend.unop("sqrt", self)

    def cbrt(self) -> "Value":
        return self.backend.unop("cbrt", self)

    def __del__(self) -> None:
        # Liveness feedback for the tracing backend's register-pressure
        # model; CPython refcounting makes this deterministic.
        try:
            self.backend.note_value_death()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Value({self.payload!r})"


@dataclasses.dataclass
class Temp:
    """Handle of a declared temporary array."""

    spec: TempSpec
    data: Optional[np.ndarray] = None  # numpy backend only


@dataclasses.dataclass
class KernelContext:
    """Everything a kernel invocation needs about its element group.

    Attributes
    ----------
    connectivity:
        ``(nlane, nnode)`` global node ids of the group.
    coords:
        ``(nnode_global, 3)`` global coordinate array.
    fields:
        Global nodal arrays by name (``"velocity"`` is ``(nnode, 3)``).
    rhs:
        Global RHS ``(nnode, 3)`` accumulated into by scatter-adds.
    params:
        Runtime parameters (density, viscosity, model constants, flags).
        The *specialized* kernels ignore this and use compile-time Python
        constants -- that is the S transformation.
    nnode_per_element:
        Local nodes per element (4 for TET04; runtime-variable for the
        generic baseline).
    scatter:
        Optional :class:`repro.fem.plan.ScatterAccumulator`.  When set,
        the numpy backend defers every ``scatter_add_rhs`` into it (one
        ``bincount`` reduction per assembly, bit-identical to the
        per-call ``np.add.at`` path); when ``None`` the backend scatters
        immediately with ``np.add.at``.
    """

    connectivity: np.ndarray
    coords: np.ndarray
    fields: Dict[str, np.ndarray]
    rhs: np.ndarray
    params: Dict[str, float]
    nnode_per_element: int = 4
    active: Optional[np.ndarray] = None
    scatter: Optional[object] = None

    @property
    def nlane(self) -> int:
        return self.connectivity.shape[0]


class Backend:
    """Abstract kernel backend."""

    #: lanes the backend evaluates concurrently
    nlane: int

    # -- scalars -------------------------------------------------------
    def const(self, x: Number) -> Value:
        raise NotImplementedError

    def binop(self, op: str, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def unop(self, op: str, a: Value) -> Value:
        raise NotImplementedError

    # -- temporaries ---------------------------------------------------
    def temp(
        self,
        name: str,
        shape: Tuple[int, ...],
        storage: Storage,
        static: bool = False,
        write_before_read: bool = False,
    ) -> Temp:
        raise NotImplementedError

    def load(self, temp: Temp, idx: Tuple[int, ...]) -> Value:
        raise NotImplementedError

    def store(self, temp: Temp, idx: Tuple[int, ...], value: Value) -> None:
        raise NotImplementedError

    # -- mesh / global data ---------------------------------------------
    def gather_coord(self, node_slot: int, component: int) -> Value:
        """Load coordinate ``component`` of local node ``node_slot``."""
        raise NotImplementedError

    def gather_field(self, field: str, node_slot: int, component: int) -> Value:
        raise NotImplementedError

    def scatter_add_rhs(self, node_slot: int, component: int, value: Value) -> None:
        raise NotImplementedError

    def select_gt(self, x: Value, thresh: float, a: Value, b) -> Value:
        """Lane-wise ``a if x > thresh else b`` (predicated select)."""
        raise NotImplementedError

    def maximum(self, a: Value, b) -> Value:
        raise NotImplementedError

    # -- parameters and control -----------------------------------------
    def runtime_param(self, name: str) -> Value:
        """Load a runtime scalar parameter (counts as a uniform load)."""
        raise NotImplementedError

    def runtime_flag(self, name: str) -> int:
        """Read an integer option flag (counts as a branch)."""
        raise NotImplementedError

    def fence(self, label: str = "") -> None:
        """Marker separating kernel phases (no-op numerically)."""

    def note_value_death(self) -> None:
        """Liveness callback from :class:`Value`; only tracing cares."""


# ---------------------------------------------------------------------------
# Numpy execution backend
# ---------------------------------------------------------------------------


class NumpyBackend(Backend):
    """Executes kernels: each :class:`Value` wraps a ``(nlane,)`` float64
    vector, so one kernel call assembles a whole element group."""

    def __init__(self, ctx: KernelContext) -> None:
        self.ctx = ctx
        self.nlane = ctx.nlane
        self._temps: Dict[str, Temp] = {}

    # -- scalars -------------------------------------------------------
    def const(self, x: Number) -> Value:
        return Value(self, np.float64(x))

    def binop(self, op: str, a: Value, b: Value) -> Value:
        pa, pb = a.payload, b.payload
        if op == "add":
            return Value(self, pa + pb)
        if op == "sub":
            return Value(self, pa - pb)
        if op == "mul":
            return Value(self, pa * pb)
        if op == "div":
            return Value(self, pa / pb)
        if op == "max":
            return Value(self, np.maximum(pa, pb))
        raise ValueError(f"unknown binop {op!r}")

    def unop(self, op: str, a: Value) -> Value:
        if op == "neg":
            return Value(self, -a.payload)
        if op == "sqrt":
            return Value(self, np.sqrt(a.payload))
        if op == "cbrt":
            return Value(self, np.cbrt(a.payload))
        raise ValueError(f"unknown unop {op!r}")

    def maximum(self, a: Value, b) -> Value:
        return self.binop("max", a, self._coerce(b))

    def select_gt(self, x: Value, thresh: float, a: Value, b) -> Value:
        bv = self._coerce(b)
        return Value(self, np.where(x.payload > thresh, a.payload, bv.payload))

    def _coerce(self, x) -> Value:
        return x if isinstance(x, Value) else self.const(x)

    # -- temporaries ---------------------------------------------------
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
        # Write-before-read temporaries skip the zero fill (see the
        # TempSpec contract in storage.py): the kernel promises every slot
        # is stored before it is loaded, so the fill would be dead work.
        alloc = np.empty if spec.write_before_read else np.zeros
        t = Temp(spec=spec, data=alloc((self.nlane,) + spec.shape))
        self._temps[name] = t
        return t

    def load(self, temp: Temp, idx: Tuple[int, ...]) -> Value:
        return Value(self, temp.data[(slice(None),) + tuple(idx)])

    def store(self, temp: Temp, idx: Tuple[int, ...], value: Value) -> None:
        temp.data[(slice(None),) + tuple(idx)] = value.payload

    # -- mesh / global data ---------------------------------------------
    def gather_coord(self, node_slot: int, component: int) -> Value:
        nodes = self.ctx.connectivity[:, node_slot]
        return Value(self, self.ctx.coords[nodes, component])

    def gather_field(self, field: str, node_slot: int, component: int) -> Value:
        nodes = self.ctx.connectivity[:, node_slot]
        data = self.ctx.fields[field]
        if data.ndim == 1:
            return Value(self, data[nodes])
        return Value(self, data[nodes, component])

    def scatter_add_rhs(self, node_slot: int, component: int, value: Value) -> None:
        if self.ctx.scatter is not None:
            self.ctx.scatter.add(node_slot, component, value.payload)
            return
        nodes = self.ctx.connectivity[:, node_slot]
        vals = np.broadcast_to(value.payload, nodes.shape)
        if self.ctx.active is not None:
            nodes = nodes[self.ctx.active]
            vals = vals[self.ctx.active]
        np.add.at(self.ctx.rhs, (nodes, component), vals)

    # -- parameters ------------------------------------------------------
    def runtime_param(self, name: str) -> Value:
        return self.const(self.ctx.params[name])

    def runtime_flag(self, name: str) -> int:
        return int(self.ctx.params[name])

    def fence(self, label: str = "") -> None:
        pass


# ---------------------------------------------------------------------------
# Tracing backend
# ---------------------------------------------------------------------------

#: flop cost per DSL operation (1 FMA = 2 Flop convention of the paper;
#: the DSL has no fused op, so add and mul simply cost 1 each).
_FLOP_COST = {
    "add": 1,
    "sub": 1,
    "mul": 1,
    "div": 1,
    "max": 1,
    "neg": 1,
    "sqrt": 1,
    "cbrt": 1,
}


@dataclasses.dataclass
class TraceReport:
    """Per-element instruction statistics of one traced kernel run.

    All counts are per element (lane).  ``pattern`` is the ordered memory
    event list of the kernel body, used by the machine models to replay the
    access stream warp-by-warp / group-by-group.
    """

    flops: int = 0
    loads: Dict[Storage, int] = dataclasses.field(
        default_factory=lambda: {s: 0 for s in Storage}
    )
    stores: Dict[Storage, int] = dataclasses.field(
        default_factory=lambda: {s: 0 for s in Storage}
    )
    branches: int = 0
    param_loads: int = 0
    peak_live_values: int = 0
    dependency_depth: int = 0
    memory_ilp: float = 1.0
    temps: Dict[str, TempSpec] = dataclasses.field(default_factory=dict)
    pattern: List[MemoryEvent] = dataclasses.field(default_factory=list)

    # -- derived -------------------------------------------------------
    def temp_slots(self, storage: Storage) -> int:
        """Total scalar slots of temporaries in a storage class."""
        return sum(t.size for t in self.temps.values() if t.storage is storage)

    def temp_arrays(self, storage: Storage) -> int:
        return sum(1 for t in self.temps.values() if t.storage is storage)

    @property
    def total_loads(self) -> int:
        return sum(self.loads.values())

    @property
    def total_stores(self) -> int:
        return sum(self.stores.values())

    def loadstore(self, *storages: Storage) -> int:
        """Loads + stores restricted to the given storage classes."""
        return sum(self.loads[s] + self.stores[s] for s in storages)

    def summary(self) -> str:
        lines = [
            f"flops/element            : {self.flops}",
            f"global temp load/store   : {self.loadstore(Storage.GLOBAL_TEMP)}",
            f"private load/store       : {self.loadstore(Storage.PRIVATE)}",
            f"mesh load/store          : {self.loadstore(Storage.MESH)}",
            f"param loads / branches   : {self.param_loads} / {self.branches}",
            f"temp arrays (global/priv): "
            f"{self.temp_arrays(Storage.GLOBAL_TEMP)} / "
            f"{self.temp_arrays(Storage.PRIVATE)}",
            f"temp values (global/priv): "
            f"{self.temp_slots(Storage.GLOBAL_TEMP)} / "
            f"{self.temp_slots(Storage.PRIVATE)}",
            f"peak live scalars        : {self.peak_live_values}",
            f"dependency depth         : {self.dependency_depth}",
            f"memory ILP estimate      : {self.memory_ilp:.2f}",
        ]
        return "\n".join(lines)


class TracingBackend(Backend):
    """Counts instructions and records the memory-access pattern.

    The backend runs the kernel on a *single representative element group*
    (numerics are evaluated with plain floats so control flow is identical
    to a real run).  It maintains:

    * per-storage-class load/store counters and flop counters;
    * the ordered :class:`MemoryEvent` pattern of one lane;
    * a live-value high-water mark: every :class:`Value` created is live
      until garbage collected, which under CPython refcounting tracks
      expression lifetimes closely -- the model for *register pressure*;
    * the longest dependency chain (each value records
      ``depth = max(operand depths) + 1``) -- the model for exposed
      latency;
    * a memory-ILP estimate: the mean number of loads issued between
      dependent uses, which the GPU model feeds into its Little's-law
      bandwidth term.
    """

    def __init__(self, ctx: KernelContext, lane: int = 0) -> None:
        self.ctx = ctx
        self.nlane = ctx.nlane
        self.lane = lane
        self.report = TraceReport()
        self._live = 0
        self._chain_max = 0
        # memory ILP bookkeeping: count loads in the current independent
        # burst; a burst ends when an arithmetic op consumes a loaded value.
        self._burst = 0
        self._bursts: List[int] = []
        self._temps: Dict[str, Temp] = {}
        self._scalar_temp_values: Dict[Tuple[str, int], float] = {}

    # -- value lifecycle -------------------------------------------------
    def _make(self, payload: float, depth: int, from_load: bool = False) -> Value:
        v = Value(self, float(payload), depth)
        self._live += 1
        self.report.peak_live_values = max(self.report.peak_live_values, self._live)
        self._chain_max = max(self._chain_max, depth)
        self.report.dependency_depth = self._chain_max
        if from_load:
            self._burst += 1
        return v

    def note_value_death(self) -> None:
        self._live = max(0, self._live - 1)

    # -- scalars -------------------------------------------------------
    def const(self, x: Number) -> Value:
        return self._make(float(x), 0)

    def binop(self, op: str, a: Value, b: Value) -> Value:
        self.report.flops += _FLOP_COST[op]
        if self._burst:
            self._bursts.append(self._burst)
            self._burst = 0
        pa, pb = a.payload, b.payload
        if op == "add":
            r = pa + pb
        elif op == "sub":
            r = pa - pb
        elif op == "mul":
            r = pa * pb
        elif op == "div":
            r = pa / pb if pb != 0 else 0.0
        elif op == "max":
            r = max(pa, pb)
        else:
            raise ValueError(f"unknown binop {op!r}")
        return self._make(r, max(a.depth, b.depth) + 1)

    def unop(self, op: str, a: Value) -> Value:
        self.report.flops += _FLOP_COST[op]
        if op == "neg":
            r = -a.payload
        elif op == "sqrt":
            r = math.sqrt(max(a.payload, 0.0))
        elif op == "cbrt":
            r = math.copysign(abs(a.payload) ** (1.0 / 3.0), a.payload)
        else:
            raise ValueError(f"unknown unop {op!r}")
        return self._make(r, a.depth + 1)

    def maximum(self, a: Value, b) -> Value:
        b = b if isinstance(b, Value) else self.const(b)
        return self.binop("max", a, b)

    def select_gt(self, x: Value, thresh: float, a: Value, b) -> Value:
        b = b if isinstance(b, Value) else self.const(b)
        self.report.flops += 1  # predicated select
        r = a.payload if x.payload > thresh else b.payload
        return self._make(r, max(x.depth, a.depth, b.depth) + 1)

    # -- temporaries ---------------------------------------------------
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
        if name in self._temps:
            raise ValueError(f"temporary {name!r} declared twice")
        t = Temp(spec=spec, data=None)
        self._temps[name] = t
        self.report.temps[name] = spec
        return t

    def load(self, temp: Temp, idx: Tuple[int, ...]) -> Value:
        spec = temp.spec
        lin = spec.linear_index(tuple(idx))
        self.report.loads[spec.storage] += 1
        self.report.pattern.append(
            MemoryEvent(
                kind=AccessKind.LOAD,
                storage=spec.storage,
                array=spec.name,
                offset=lin,
            )
        )
        val = self._scalar_temp_values.get((spec.name, lin), 0.0)
        return self._make(val, 0, from_load=True)

    def store(self, temp: Temp, idx: Tuple[int, ...], value: Value) -> None:
        spec = temp.spec
        lin = spec.linear_index(tuple(idx))
        self.report.stores[spec.storage] += 1
        self.report.pattern.append(
            MemoryEvent(
                kind=AccessKind.STORE,
                storage=spec.storage,
                array=spec.name,
                offset=lin,
            )
        )
        self._scalar_temp_values[(spec.name, lin)] = value.payload

    # -- mesh / global data ---------------------------------------------
    def gather_coord(self, node_slot: int, component: int) -> Value:
        self.report.loads[Storage.MESH] += 1
        self.report.pattern.append(
            MemoryEvent(
                kind=AccessKind.LOAD,
                storage=Storage.MESH,
                array="coords",
                node_slot=node_slot,
                component=component,
            )
        )
        node = int(self.ctx.connectivity[self.lane, node_slot])
        return self._make(self.ctx.coords[node, component], 0, from_load=True)

    def gather_field(self, field: str, node_slot: int, component: int) -> Value:
        self.report.loads[Storage.MESH] += 1
        self.report.pattern.append(
            MemoryEvent(
                kind=AccessKind.LOAD,
                storage=Storage.MESH,
                array=field,
                node_slot=node_slot,
                component=component,
            )
        )
        node = int(self.ctx.connectivity[self.lane, node_slot])
        data = self.ctx.fields[field]
        val = data[node] if data.ndim == 1 else data[node, component]
        return self._make(val, 0, from_load=True)

    def scatter_add_rhs(self, node_slot: int, component: int, value: Value) -> None:
        self.report.stores[Storage.MESH] += 1
        self.report.pattern.append(
            MemoryEvent(
                kind=AccessKind.ATOMIC_ADD,
                storage=Storage.MESH,
                array="rhs",
                node_slot=node_slot,
                component=component,
            )
        )

    # -- parameters ------------------------------------------------------
    def runtime_param(self, name: str) -> Value:
        self.report.param_loads += 1
        self.report.loads[Storage.PARAM] += 1
        return self._make(float(self.ctx.params[name]), 0, from_load=True)

    def runtime_flag(self, name: str) -> int:
        self.report.branches += 1
        return int(self.ctx.params[name])

    def fence(self, label: str = "") -> None:
        if self._burst:
            self._bursts.append(self._burst)
            self._burst = 0

    # -- finalize --------------------------------------------------------
    def finalize(self) -> TraceReport:
        """Close open bursts and compute derived statistics."""
        self.fence()
        if self._bursts:
            self.report.memory_ilp = float(np.mean(self._bursts))
        return self.report
