"""Unified assembly driver: run any kernel variant over a whole mesh.

This is the "one code base, two paths" layer: it chunks the mesh into
``VECTOR_DIM`` element groups (:class:`repro.fem.packing.ElementPacking`),
builds a :class:`~repro.core.dsl.KernelContext` per group and executes the
chosen variant with the numpy backend.  The CPU path uses small groups (the
paper's ``VECTOR_DIM=16``); the GPU path uses one huge group per "kernel
launch" (``VECTOR_DIM=2048k``).

The driver also validates specialization compatibility: dispatching a
*specialized* variant with runtime parameters that contradict its
compile-time constants raises :class:`SpecializationError` -- the paper's
"our current implementation can not cover the full range of problems the
original code could handle" made explicit.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..fem.mesh import TetMesh
from ..fem.plan import get_plan
from ..obs.profiler import TapeProfiler
from ..obs.spans import get_tracer
from ..physics.momentum import AssemblyParams
from ..physics.convection import ConvectiveForm
from ..physics.turbulence import TurbulenceModel
from .batch import ScenarioBatch
from .dsl import KernelContext, NumpyBackend, TracingBackend, TraceReport
from .restructured import SPEC_DENSITY, SPEC_VISCOSITY, SPEC_VREMAN_C
from .tape import compiled_tape
from .variants import Variant, get_variant

__all__ = [
    "SpecializationError",
    "UnifiedAssembler",
    "CPU_VECTOR_DIM",
    "GPU_VECTOR_DIM",
]

#: The paper's CPU vector length ("VECTOR_DIM=16 to be fastest for both
#: AVX256 and AVX512").
CPU_VECTOR_DIM = 16

#: The paper's GPU vector length (2048k elements per kernel launch).
GPU_VECTOR_DIM = 2048 * 1024


class SpecializationError(ValueError):
    """A specialized kernel was dispatched with incompatible parameters."""


def _check_specialization(variant: Variant, params: AssemblyParams) -> None:
    if not variant.specialized:
        return
    problems = []
    if params.density != SPEC_DENSITY:
        problems.append(
            f"density {params.density} != specialized constant {SPEC_DENSITY}"
        )
    if params.viscosity != SPEC_VISCOSITY:
        problems.append(
            f"viscosity {params.viscosity} != specialized constant "
            f"{SPEC_VISCOSITY}"
        )
    if params.vreman_c != SPEC_VREMAN_C:
        problems.append(
            f"vreman_c {params.vreman_c} != specialized constant "
            f"{SPEC_VREMAN_C}"
        )
    if params.turbulence_model is not TurbulenceModel.VREMAN:
        problems.append(
            "specialized kernels hard-wire the Vreman model "
            f"(got {params.turbulence_model.name})"
        )
    if params.convective_form is not ConvectiveForm.ADVECTIVE:
        problems.append(
            "specialized kernels hard-wire the advective form "
            f"(got {params.convective_form.name})"
        )
    if problems:
        raise SpecializationError(
            f"variant {variant.name} was specialized away from this problem: "
            + "; ".join(problems)
            + ". Build a matching kernel with make_specialized_kernel(...) "
            "or use the baseline variant."
        )


@dataclasses.dataclass
class UnifiedAssembler:
    """Assemble the momentum RHS with a selected variant.

    Parameters
    ----------
    mesh:
        The tetrahedral mesh.
    params:
        Physical parameters; must be compatible with the variant's
        specialization.
    vector_dim:
        Element-group size, an integer >= 1 (a ``bool``, float or string
        is a :class:`ValueError`, as on the wire).  ``None`` (default) is
        the paper's CPU choice :data:`CPU_VECTOR_DIM`.  Pass
        :data:`GPU_VECTOR_DIM` to emulate the GPU launch configuration.
    mode:
        ``"interpreted"`` (default) runs each element group through the
        :class:`~repro.core.dsl.NumpyBackend`, the scatter deferred into
        one ``bincount`` over the mesh's
        :class:`~repro.fem.plan.AssemblyPlan` pattern -- the oracle every
        other mode is held to, byte for byte; ``"compiled"`` replays
        the plan-cached kernel tape (:mod:`repro.core.tape`) -- same op
        order, same dtype, bit-identical RHS, several times faster.
        ``"codegen"`` executes generated fused source
        (:mod:`repro.core.codegen`): the tape lowered to exec-compiled
        Python with CSE, invariant hoisting and expression fusion --
        still bit-identical, with the per-op dispatch overhead gone.
    executor:
        ``"serial"`` (default) replays the whole lane axis in one sweep;
        ``"threads"`` (compiled/codegen modes only) splits element groups
        into chunks (the arena budget of :mod:`repro.core.arena`) run in
        per-thread slabs on :func:`~repro.parallel.threads.fork_join`
        (:meth:`~repro.core.arena.MeshBound.execute_chunked`).  An adopted
        C form runs its own group ranges under either executor; results
        stay bitwise identical to the serial executor.
    num_threads:
        Thread count for ``executor="threads"``; defaults to the CPU
        count.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; an
        ``("assembler", "nan"/"inf")`` fault corrupts one lane of the
        assembled RHS (one occurrence per :meth:`assemble`, one per
        scenario of :meth:`run_batch`).  The corrupted result is returned
        as is: whoever owns the job recovers it (the server's mode
        ladder, a step's guards).
    profile:
        When true, assemblies record op-level software counters (wall
        time, derived bytes and Flops per tape op) into this assembler's
        own :class:`repro.obs.profiler.TapeProfiler`, ``.profiler`` --
        the reproduction's LIKWID.  Results are bitwise identical to an
        unprofiled assembly; when false (default) ``.profiler`` is
        ``None`` and no profiling code runs at all.  Requires
        ``mode="compiled"`` or ``"codegen"``: the counters come from the
        program's op/statement cost table.
    """

    mesh: TetMesh
    params: AssemblyParams = dataclasses.field(default_factory=AssemblyParams)
    vector_dim: Optional[int] = None
    mode: str = "interpreted"
    fault_plan: Optional[object] = dataclasses.field(default=None, repr=False)
    executor: str = "serial"
    num_threads: Optional[int] = None
    profile: bool = False

    def __post_init__(self) -> None:
        vd = self.vector_dim
        if vd is not None and (
            isinstance(vd, bool) or not isinstance(vd, (int, np.integer)) or vd < 1
        ):
            raise ValueError(f"vector_dim must be an integer >= 1, got {vd!r}")
        if self.mode not in ("interpreted", "compiled", "codegen"):
            raise ValueError(
                f"unknown assembly mode {self.mode!r}; "
                "expected 'interpreted', 'compiled' or 'codegen'"
            )
        if self.profile and self.mode == "interpreted":
            raise ValueError(
                "profile=True requires mode='compiled' or 'codegen': "
                "op-level profiling reads the program's op/statement "
                "cost table"
            )
        if self.executor not in ("serial", "threads"):
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                "expected 'serial' or 'threads'"
            )
        if self.executor == "threads" and self.mode not in ("compiled", "codegen"):
            raise ValueError(
                "executor='threads' requires mode='compiled' or "
                "'codegen': only those drop the GIL inside numpy ufuncs; "
                "the interpreted per-group backend would serialize on it"
            )
        self.profiler = TapeProfiler() if self.profile else None
        self.plan = get_plan(self.mesh)
        #: the one-scenario batch a solo sweep binds (``interpreted`` too
        #: reads its kernel params)
        self._batch = ScenarioBatch([self.params])
        #: lazy per-scenario serial assemblers (interpreted batches and a
        #: campaign's solo rows)
        self._scenario_assemblers: dict = {}
        self.packing = self.plan.packing(self.resolve_vector_dim())

    def resolve_vector_dim(self, variant_name: Optional[str] = None) -> int:
        """The group size every variant assembles with: the explicit
        ``vector_dim``, else the paper's CPU default
        :data:`CPU_VECTOR_DIM`."""
        if self.vector_dim is not None:
            return int(self.vector_dim)
        return CPU_VECTOR_DIM

    def _context(
        self, group, velocity: np.ndarray, rhs: np.ndarray, scatter=None
    ) -> KernelContext:
        return KernelContext(
            connectivity=group.connectivity,
            coords=self.mesh.coords,
            fields={"velocity": velocity},
            rhs=rhs,
            params=self._batch.recording_params(),
            nnode_per_element=4,
            active=None if group.nactive == group.vector_dim else group.active,
            scatter=scatter,
        )

    def _maybe_corrupt(self, rhs: np.ndarray) -> None:
        if self.fault_plan is not None:
            self.fault_plan.corrupt("assembler", rhs)

    def assemble(
        self, variant_name: str, velocity: np.ndarray
    ) -> np.ndarray:
        """Assemble the global momentum RHS ``(nnode, 3)`` with a variant."""
        variant = get_variant(variant_name)
        _check_specialization(variant, self.params)
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.shape != (self.mesh.nnode, 3):
            raise ValueError(
                f"velocity must be ({self.mesh.nnode}, 3), got {velocity.shape}"
            )
        rhs = np.zeros((self.mesh.nnode, 3))
        vector_dim = self.resolve_vector_dim(variant.name)
        tracer = get_tracer()
        with tracer.span(
            "assemble",
            variant=variant.name,
            nelem=int(self.mesh.nelem),
            vector_dim=vector_dim,
            mode=self.mode,
            executor=self.executor,
        ):
            if self.mode in ("compiled", "codegen"):
                # a solo sweep is the S = 1 batch, swept into a view of rhs
                self._sweep(self._kernel(variant.name, vector_dim, self._batch), velocity, rhs[None])
                self._maybe_corrupt(rhs)
                return rhs
            acc = self.plan.accumulator(key=(variant.name, vector_dim))
            for group in self.plan.packing(vector_dim):
                acc.begin_group(group)
                ctx = self._context(group, velocity, rhs, scatter=acc)
                variant.kernel(NumpyBackend(ctx), ctx)
            with tracer.span("scatter.flush", variant=variant.name):
                acc.finalize(rhs)
            self._maybe_corrupt(rhs)
        return rhs

    def _kernel(self, variant_name: str, vector_dim: int, batch, velocity_rank: str = "vec"):
        """The plan-cached bound kernel of this assembler's mode for ``batch``."""
        if self.mode == "codegen":
            from .codegen import generated_kernel as make
        else:
            make = compiled_tape
        return make(self.plan, variant_name, vector_dim, batch, velocity_rank)

    def _sweep(self, kern, velocity, rhs, param_rows=None) -> np.ndarray:
        """One sweep of ``kern`` on this assembler's executor.  The kernel
        is plan-cached and shared by every job on the mesh: this caller's
        parameter values and profiler travel with the call, inside the
        kernel's lock."""
        kwargs = dict(param_rows=param_rows, profiler=self.profiler)
        if self.executor == "threads":
            kwargs["num_threads"] = self.num_threads
            return kern.execute_chunked(velocity, rhs, **kwargs)
        return kern.execute(velocity, rhs, **kwargs)

    def _scenario_assembler(self, params: AssemblyParams) -> "UnifiedAssembler":
        """Serial assembler for one scenario's params (interpreted batches,
        a campaign's solo rows)."""
        asm = self._scenario_assemblers.get(params)
        if asm is None:
            asm = UnifiedAssembler(
                self.mesh,
                params,
                vector_dim=self.vector_dim,
                mode=self.mode,
                executor=self.executor,
                num_threads=self.num_threads,
            )
            self._scenario_assemblers[params] = asm
        return asm

    def run_batch(
        self, variant_name: str, batch, velocity: np.ndarray
    ) -> np.ndarray:
        """Assemble ``S`` scenarios in one batched sweep -> ``(S, nnode, 3)``.

        Parameters
        ----------
        variant_name:
            DSL variant; specialization compatibility is checked against
            *every* scenario's params.
        batch:
            A :class:`~repro.core.batch.ScenarioBatch` (or a sequence of
            :class:`AssemblyParams`, batched on the fly).
        velocity:
            Either one shared ``(nnode, 3)`` field (broadcast to all
            scenarios) or per-scenario ``(S, nnode, 3)`` fields (for
            ``S = 1`` the shared field).

        In ``compiled`` / ``codegen`` modes all scenarios run through one
        tape replay / generated kernel with ``(S, lanes)`` buffers and one
        flush (a one-scenario batch binds the very kernel :meth:`assemble`
        sweeps for its params); ``interpreted`` mode is the reference
        serial loop.  Results are bit-identical per scenario to ``S``
        independent :meth:`assemble` calls with the same configuration,
        a non-finite row included: the sweep's bytes are returned as
        computed, and the caller's own guards decide what a bad row means.
        """
        if not isinstance(batch, ScenarioBatch):
            batch = ScenarioBatch(batch)
        variant = get_variant(variant_name)
        for params in batch:
            _check_specialization(variant, params)
        S = batch.size
        nnode = self.mesh.nnode
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.shape == (1, nnode, 3) and S == 1:
            velocity = velocity[0]  # one scenario's field is shared: the solo kernel
        if velocity.shape == (nnode, 3):
            velocity_rank = "vec"
        elif velocity.shape == (S, nnode, 3):
            velocity_rank = "full"
        else:
            raise ValueError(
                f"velocity must be ({nnode}, 3) shared or "
                f"({S}, {nnode}, 3) per-scenario, got {velocity.shape}"
            )
        vector_dim = self.resolve_vector_dim(variant.name)
        with get_tracer().span(
            "run_batch",
            variant=variant.name,
            scenarios=S,
            vector_dim=vector_dim,
            mode=self.mode,
            executor=self.executor,
            velocity_rank=velocity_rank,
        ):
            rhs = np.zeros((S, nnode, 3))
            if self.mode == "interpreted":
                for s in range(S):
                    sub = self._scenario_assembler(batch[s])
                    v_s = velocity if velocity_rank == "vec" else velocity[s]
                    rhs[s] = sub.assemble(variant.name, v_s)
            else:
                rhs = self._sweep(
                    self._kernel(variant.name, vector_dim, batch, velocity_rank),
                    velocity,
                    rhs,
                    batch.param_rows(),
                )
            if self.fault_plan is not None:
                for s in range(S):
                    self.fault_plan.corrupt("assembler", rhs[s])
        return rhs

    def trace(
        self,
        variant_name: str,
        velocity: Optional[np.ndarray] = None,
        group_index: int = 0,
    ) -> TraceReport:
        """Trace one element group of a variant (per-element counters)."""
        variant = get_variant(variant_name)
        _check_specialization(variant, self.params)
        if velocity is None:
            velocity = np.zeros((self.mesh.nnode, 3))
        group = self.packing.group(group_index)
        rhs = np.zeros((self.mesh.nnode, 3))
        with get_tracer().span(
            "kernel_trace", variant=variant.name, group=int(group_index)
        ):
            ctx = self._context(group, np.asarray(velocity, dtype=np.float64), rhs)
            bk = TracingBackend(ctx)
            variant.kernel(bk, ctx)
            return bk.finalize()
