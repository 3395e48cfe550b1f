"""``VECTOR_DIM`` autotuner: sweep group sizes, persist the winner.

The paper fixes ``VECTOR_DIM = 16`` on the CPU and ``2048k`` on the GPU
after manual tuning ("a study of vectorization for matrix-free finite
element methods" makes the same point: the profitable vector length is a
machine property, not a code property).  This module automates that sweep
for the Python substrate: time each candidate group size on the actual
mesh, pick the fastest, and persist the winner on the mesh's
:class:`~repro.fem.plan.AssemblyPlan` so every later
:class:`~repro.core.unified.UnifiedAssembler` constructed without an
explicit ``vector_dim`` resolves to it.

Determinism: candidates are timed best-of-``repeats`` with an injectable
``timer`` callable (the tests pass a seeded stub), and ties break toward
the smaller group size, so a given sequence of timer readings always
elects the same winner.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fem.mesh import TetMesh
from ..fem.plan import get_plan
from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from .unified import UnifiedAssembler

__all__ = [
    "DEFAULT_CANDIDATES",
    "AutotuneResult",
    "autotune_vector_dim",
    "write_autotune_report",
]

#: Default group-size sweep: powers of two bracketing the paper's CPU
#: choice of 16 up through whole-mesh-at-once territory.
DEFAULT_CANDIDATES: Tuple[int, ...] = (8, 16, 32, 64, 256, 1024, 4096)


@dataclasses.dataclass(frozen=True)
class AutotuneResult:
    """Outcome of one ``VECTOR_DIM`` sweep for one variant."""

    variant: str
    mode: str
    nelem: int
    candidates: Tuple[int, ...]
    wall_seconds: Tuple[float, ...]  # best-of-``repeats`` per candidate
    winner: int
    repeats: int

    @property
    def best_seconds(self) -> float:
        return self.wall_seconds[self.candidates.index(self.winner)]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "mode": self.mode,
            "nelem": self.nelem,
            "candidates": list(self.candidates),
            "wall_seconds": list(self.wall_seconds),
            "winner": self.winner,
            "best_seconds": self.best_seconds,
            "repeats": self.repeats,
        }


def autotune_vector_dim(
    mesh: TetMesh,
    variant: str = "RSP",
    params=None,
    candidates: Optional[Sequence[int]] = None,
    repeats: int = 3,
    timer: Optional[Callable[[], float]] = None,
    velocity: Optional[np.ndarray] = None,
    mode: str = "compiled",
    tracer=None,
    persist: bool = True,
    batch=None,
) -> AutotuneResult:
    """Sweep ``VECTOR_DIM`` candidates for ``variant`` on ``mesh``.

    Each candidate is warmed once (tape recording / pattern build excluded
    from timing) and then timed ``repeats`` times; the candidate with the
    smallest best-of time wins, ties broken toward the smaller group size.
    With ``persist=True`` (default) the winner is recorded on the mesh's
    plan via :meth:`~repro.fem.plan.AssemblyPlan.set_tuned_vector_dim`,
    keyed ``(variant, mode)`` so the compiled and codegen winners never
    evict each other; assemblers constructed with ``vector_dim=None``
    pick it up.

    Parameters
    ----------
    timer:
        Clock used for the measurements (``time.perf_counter`` by
        default).  Injectable so tests can drive the sweep with a
        deterministic stub.
    batch:
        Optional :class:`~repro.core.batch.ScenarioBatch` (or sequence of
        :class:`AssemblyParams`): candidates are then timed on the
        batched ``run_batch`` path and the winner persists under the
        batch-aware mode key ``"<mode>@S<scenarios>"``, which
        :meth:`~repro.core.unified.UnifiedAssembler.resolve_vector_dim`
        consults first for batched assemblies.  The profitable lane
        width shifts with ``S`` (each lane carries ``S`` rows of every
        full-rank buffer), so batched campaigns deserve their own sweep.
    """
    from ..physics.momentum import AssemblyParams

    if batch is not None:
        from .batch import ScenarioBatch

        if not isinstance(batch, ScenarioBatch):
            batch = ScenarioBatch(batch)
    if params is None:
        params = AssemblyParams() if batch is None else batch[0]
    if timer is None:
        timer = time.perf_counter
    if candidates is None:
        candidates = DEFAULT_CANDIDATES
    cand = tuple(int(c) for c in candidates)
    if not cand:
        raise ValueError("autotune needs at least one candidate vector_dim")
    if velocity is None:
        velocity = np.zeros((mesh.nnode, 3))
    variant = variant.upper()
    mode_key = mode if batch is None else f"{mode}@S{batch.size}"

    walls: List[float] = []
    with get_tracer().span(
        "tape.autotune",
        variant=variant,
        mode=mode_key,
        candidates=len(cand),
    ):
        for vd in cand:
            kwargs = dict(vector_dim=vd, mode=mode)
            if tracer is not None:
                kwargs["tracer"] = tracer
            asm = UnifiedAssembler(mesh, params, **kwargs)
            # warm: record/compile/cache
            if batch is None:
                asm.assemble(variant, velocity)
            else:
                asm.run_batch(variant, batch, velocity)
            best = None
            for _ in range(max(1, int(repeats))):
                t0 = timer()
                if batch is None:
                    asm.assemble(variant, velocity)
                else:
                    asm.run_batch(variant, batch, velocity)
                dt = timer() - t0
                best = dt if best is None else min(best, dt)
            walls.append(float(best))

    # Deterministic winner: smallest time, then smallest group size.
    winner = min(zip(walls, cand))[1]
    result = AutotuneResult(
        variant=variant,
        mode=mode_key,
        nelem=int(mesh.nelem),
        candidates=cand,
        wall_seconds=tuple(walls),
        winner=winner,
        repeats=max(1, int(repeats)),
    )
    registry = get_registry()
    registry.counter("tape.autotune_runs").inc()
    if persist:
        get_plan(mesh).set_tuned_vector_dim(variant, winner, mode=mode_key)
    return result


def write_autotune_report(
    results: Sequence[AutotuneResult], path
) -> Dict[str, object]:
    """Write a JSON autotune report (uploaded as a CI artifact)."""
    doc = {
        "schema": "repro-autotune/1",
        "results": [r.to_dict() for r in results],
        "winners": {r.variant: r.winner for r in results},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
