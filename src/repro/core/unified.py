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
from ..fem.packing import ElementPacking
from ..fem.plan import get_plan
from ..obs.spans import NULL_TRACER
from ..physics.momentum import AssemblyParams
from ..physics.convection import ConvectiveForm
from ..physics.turbulence import TurbulenceModel
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
        Element-group size.  ``None`` (default) is the paper's CPU choice
        :data:`CPU_VECTOR_DIM`.  Pass :data:`GPU_VECTOR_DIM` to emulate the
        GPU launch configuration.
    mode:
        ``"interpreted"`` (default) runs the seed per-group
        :class:`~repro.core.dsl.NumpyBackend` path; ``"compiled"`` replays
        the plan-cached kernel tape (:mod:`repro.core.tape`) -- same op
        order, same dtype, bit-identical RHS, several times faster.
        ``"codegen"`` executes generated fused source
        (:mod:`repro.core.codegen`): the tape lowered to exec-compiled
        Python with CSE, invariant hoisting and expression fusion --
        still bit-identical, with the per-op dispatch overhead gone.
        Compiled and codegen modes require ``use_plan=True``.
    tracer:
        Optional :class:`repro.obs.Tracer`; assemblies and kernel traces
        are recorded as ``assemble`` / ``kernel_trace`` spans.  Defaults to
        the no-op tracer (zero overhead).
    permutation:
        Optional element processing order handed to the packing.
    use_plan:
        When true (default) the assembler reuses the mesh's
        :class:`~repro.fem.plan.AssemblyPlan`: element groups are
        gathered once per mesh lifetime and the RHS scatter is deferred
        into a single precomputed ``bincount`` reduction.  Disable to run
        the seed per-call ``np.add.at`` path (bit-identical results; the
        equivalence tests rely on this switch).
    executor:
        ``"serial"`` (default) replays the whole lane axis in one sweep;
        ``"threads"`` (compiled/codegen modes only) splits element groups
        into cache-sized chunks executed on a shared
        :class:`~concurrent.futures.ThreadPoolExecutor` with per-thread
        arena slabs
        (:meth:`~repro.core.arena.MeshBound.execute_chunked`).  The
        threaded reduction order is fixed, so results stay bitwise
        identical to the serial executor.
    num_threads:
        Thread count for ``executor="threads"``; defaults to the CPU
        count (``REPRO_NUM_THREADS`` overrides).
    chunk_groups:
        Chunk size (element groups per chunk) of a compiled/codegen
        sweep; ``None`` lets the kernel choose (the L2 arena budget of
        :mod:`repro.core.arena`, or the whole mesh for a single-threaded
        replay of a program without per-scenario rows).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; an
        ``("assembler", "nan"/"inf")`` fault corrupts one lane of the
        assembled RHS so the chaos suite can force a degradation of
        :class:`~repro.resilience.ladders.ResilientAssembler`.
    profile:
        When true, assemblies record op-level software counters (wall
        time, derived bytes and Flops per tape op) into ``profiler`` --
        the reproduction's LIKWID.  Results are bitwise identical to an
        unprofiled assembly; when false (default) no profiling code runs
        at all (the zero-cost :data:`repro.obs.profiler.NULL_PROFILER`
        path).  Requires ``mode="compiled"`` or ``"codegen"``: the
        counters come from the program's op/statement cost table.
    profiler:
        Optional :class:`repro.obs.profiler.TapeProfiler` to collect
        into; one is created lazily when ``profile=True``.  Pass a shared
        instance to aggregate several assemblers/variants into one
        report.
    """

    mesh: TetMesh
    params: AssemblyParams = dataclasses.field(default_factory=AssemblyParams)
    vector_dim: Optional[int] = None
    tracer: object = dataclasses.field(default=NULL_TRACER, repr=False)
    permutation: Optional[np.ndarray] = dataclasses.field(default=None, repr=False)
    use_plan: bool = True
    mode: str = "interpreted"
    fault_plan: Optional[object] = dataclasses.field(default=None, repr=False)
    executor: str = "serial"
    num_threads: Optional[int] = None
    chunk_groups: Optional[int] = None
    profile: bool = False
    profiler: Optional[object] = dataclasses.field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.profile and self.profiler is None:
            from ..obs.profiler import TapeProfiler

            self.profiler = TapeProfiler()
        if self.profiler is not None:
            self.profile = True
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
        if self.mode in ("compiled", "codegen") and not self.use_plan:
            raise ValueError(
                f"mode={self.mode!r} requires use_plan=True: the kernel "
                "tape / generated kernel is cached on the mesh's "
                "AssemblyPlan"
            )
        if self.executor not in ("serial", "threads"):
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                "expected 'serial' or 'threads'"
            )
        if self.executor == "threads" and self.mode not in (
            "compiled", "codegen"
        ):
            raise ValueError(
                "executor='threads' requires mode='compiled' or "
                "'codegen': only those drop the GIL inside numpy ufuncs; "
                "the interpreted per-group backend would serialize on it"
            )
        self._mesh_version = getattr(self.mesh, "_version", 0)
        if self.use_plan:
            self.plan = get_plan(self.mesh)
        else:
            self.plan = None
        self._kernel_params = self.params.as_kernel_params()
        perm = self.permutation
        self._perm_key = None if perm is None else np.asarray(
            perm, dtype=np.int64
        ).tobytes()
        self._packings: dict = {}
        #: lazy per-scenario serial assemblers (interpreted batch path)
        self._scenario_assemblers: dict = {}
        #: telemetry of the most recent :meth:`run_batch` call
        self.last_batch: Optional[dict] = None
        self.packing = self._packing(self.resolve_vector_dim())

    def _refresh_caches(self) -> None:
        """Re-resolve plan/packing when the mesh numbering changed.

        Any in-place mutation (:meth:`~repro.fem.mesh.TetMesh.mutate`,
        e.g. a renumbering or reorientation) bumps the mesh's structural
        version; an assembler constructed before the mutation must never
        replay scatter patterns, tapes or packed groups gathered against
        the old numbering.
        """
        version = getattr(self.mesh, "_version", 0)
        if version == self._mesh_version:
            return
        self._mesh_version = version
        self.plan = get_plan(self.mesh) if self.use_plan else None
        self._packings.clear()
        self.packing = self._packing(self.packing.vector_dim)

    def resolve_vector_dim(self, variant_name: Optional[str] = None) -> int:
        """The group size every variant assembles with: the explicit
        ``vector_dim``, else the paper's CPU default
        :data:`CPU_VECTOR_DIM`."""
        if self.vector_dim is not None:
            return int(self.vector_dim)
        return CPU_VECTOR_DIM

    def _packing(self, vector_dim: int) -> ElementPacking:
        if self.plan is not None:
            return self.plan.packing(vector_dim, permutation=self.permutation)
        packing = self._packings.get(vector_dim)
        if packing is None:
            packing = ElementPacking(
                self.mesh,
                vector_dim=vector_dim,
                permutation=self.permutation,
            )
            self._packings[vector_dim] = packing
        return packing

    def _context(
        self, group, velocity: np.ndarray, rhs: np.ndarray, scatter=None
    ) -> KernelContext:
        return KernelContext(
            connectivity=group.connectivity,
            coords=self.mesh.coords,
            fields={"velocity": velocity},
            rhs=rhs,
            params=self._kernel_params,
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
        self._refresh_caches()
        vector_dim = self.resolve_vector_dim(variant.name)
        with self.tracer.span(
            "assemble",
            variant=variant.name,
            nelem=int(self.mesh.nelem),
            vector_dim=vector_dim,
            mode=self.mode,
            plan=bool(self.use_plan),
            executor=self.executor,
        ):
            if self.mode in ("compiled", "codegen"):
                rhs = self._sweep(
                    self._kernel(variant.name, vector_dim), velocity, rhs
                )
                self._maybe_corrupt(rhs)
                return rhs
            packing = (
                self.packing
                if vector_dim == self.packing.vector_dim
                else self._packing(vector_dim)
            )
            acc = None
            if self.plan is not None:
                acc = self.plan.accumulator(
                    key=(variant.name, vector_dim, self._perm_key)
                )
            for group in packing:
                if acc is not None:
                    acc.begin_group(group)
                ctx = self._context(group, velocity, rhs, scatter=acc)
                variant.kernel(NumpyBackend(ctx), ctx)
            if acc is not None:
                with self.tracer.span("scatter.flush", variant=variant.name):
                    acc.finalize(rhs)
            self._maybe_corrupt(rhs)
        return rhs

    def _kernel(
        self, variant_name: str, vector_dim: int, batch=None,
        velocity_rank: str = "vec",
    ):
        """The plan-cached bound kernel of this assembler's mode."""
        if self.mode == "codegen":
            from .codegen import generated_kernel as make
        else:
            make = compiled_tape
        return make(
            self.plan,
            variant_name,
            vector_dim,
            permutation=self.permutation,
            kernel_params=self._kernel_params,
            batch=batch,
            velocity_rank=velocity_rank,
        )

    def _sweep(self, kern, velocity, rhs, param_rows=None) -> np.ndarray:
        """One sweep of ``kern`` on this assembler's executor.  The kernel
        is plan-cached and shared by every job on the mesh: this caller's
        parameter values, tracer and profiler travel with the call,
        inside the kernel's lock."""
        kwargs = dict(
            chunk_groups=self.chunk_groups,
            param_rows=param_rows,
            tracer=self.tracer,
            profiler=self.profiler if self.profile else None,
        )
        if self.executor == "threads":
            kwargs["num_threads"] = self.num_threads
            return kern.execute_chunked(velocity, rhs, **kwargs)
        return kern.execute(velocity, rhs, **kwargs)

    def _scenario_assembler(self, params: AssemblyParams) -> "UnifiedAssembler":
        """Serial assembler for one scenario's params (interpreted batches)."""
        asm = self._scenario_assemblers.get(params)
        if asm is None:
            asm = UnifiedAssembler(
                self.mesh,
                params,
                vector_dim=self.vector_dim,
                tracer=self.tracer,
                permutation=self.permutation,
                use_plan=self.use_plan,
                mode=self.mode,
                executor=self.executor,
                num_threads=self.num_threads,
                chunk_groups=self.chunk_groups,
            )
            self._scenario_assemblers[params] = asm
        return asm

    def _isolate_scenario(
        self,
        variant: Variant,
        params: AssemblyParams,
        velocity: np.ndarray,
        vector_dim: int,
    ) -> np.ndarray:
        """Re-assemble one corrupted scenario on the resilience ladder.

        The scenario leaves the batch alone: it climbs down the usual
        ``mode -> ... -> reference`` degradation ladder (validated against
        the vectorized reference on first sweep) while the surviving
        scenarios' batched results are returned untouched.
        """
        from ..resilience.ladders import ResilientAssembler, record_escalation

        record_escalation(
            "BatchIsolation",
            "resilience.batch_isolations",
            self.tracer,
            None,
            variant=variant.name,
            mode=self.mode,
        )
        modes = ResilientAssembler.MODES
        start = modes.index(self.mode) if self.mode in modes else 0
        ladder = ResilientAssembler(
            self.mesh,
            params,
            variant=variant.name,
            modes=modes[start:],
            tracer=self.tracer,
            vector_dim=vector_dim,
        )
        return ladder(self.mesh, velocity, params)

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
            scenarios) or per-scenario ``(S, nnode, 3)`` fields.

        In ``compiled`` / ``codegen`` modes all scenarios run through one
        tape replay / generated kernel with ``(S, lanes)`` buffers and a
        single scatter flush; ``interpreted`` mode is the reference
        serial loop.  Results are bit-identical per scenario to ``S``
        independent :meth:`assemble` calls with the same configuration.

        A scenario whose assembled RHS comes back non-finite (e.g. an
        injected ``"assembler"`` fault) is re-assembled alone on the
        resilience ladder; the other scenarios' batched results are
        returned untouched.  Per-scenario telemetry lands in
        :attr:`last_batch`.
        """
        from .batch import ScenarioBatch

        if not isinstance(batch, ScenarioBatch):
            batch = ScenarioBatch(batch)
        variant = get_variant(variant_name)
        for params in batch:
            _check_specialization(variant, params)
        S = batch.size
        nnode = self.mesh.nnode
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.shape == (nnode, 3):
            velocity_rank = "vec"
        elif velocity.shape == (S, nnode, 3):
            velocity_rank = "full"
        else:
            raise ValueError(
                f"velocity must be ({nnode}, 3) shared or "
                f"({S}, {nnode}, 3) per-scenario, got {velocity.shape}"
            )
        self._refresh_caches()
        vector_dim = self.resolve_vector_dim(variant.name)
        with self.tracer.span(
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
            finite = [bool(np.isfinite(rhs[s]).all()) for s in range(S)]
            isolated = []
            for s in range(S):
                if finite[s]:
                    continue
                v_s = velocity if velocity_rank == "vec" else velocity[s]
                rhs[s] = self._isolate_scenario(
                    variant, batch[s], v_s, vector_dim
                )
                isolated.append(s)
            self.last_batch = {
                "variant": variant.name,
                "scenarios": S,
                "mode": self.mode,
                "executor": self.executor,
                "vector_dim": vector_dim,
                "velocity_rank": velocity_rank,
                "isolated": tuple(isolated),
                "per_scenario": [
                    {
                        "scenario": s,
                        "finite_on_fast_path": finite[s],
                        "isolated": s in isolated,
                    }
                    for s in range(S)
                ],
            }
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
        self._refresh_caches()
        group = self.packing.group(group_index)
        rhs = np.zeros((self.mesh.nnode, 3))
        with self.tracer.span(
            "kernel_trace", variant=variant.name, group=int(group_index)
        ):
            ctx = self._context(group, np.asarray(velocity, dtype=np.float64), rhs)
            bk = TracingBackend(ctx)
            variant.kernel(bk, ctx)
            return bk.finalize()
