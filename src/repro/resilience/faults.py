"""Deterministic, seedable fault injection.

Long LES campaigns on thousands of ranks fail in mundane ways: a worker
process dies or wedges, one rank runs slow, an RHS sweep produces a NaN, a
CG solve breaks down, a compiled kernel tape is corrupted in flight.  Every
recovery path in :mod:`repro` is driven by *injected* versions of those
faults so chaos tests exercise the machinery rather than hoping for it.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus a seed.
Injection is deterministic twice over:

* **where** a fault fires is selected by ``(site, index)`` -- the
  ``index``-th occurrence of an injection *site* (``"worker"``,
  ``"momentum_rhs"``, ``"cg"``, ``"assembler"``, ...) -- never by wall
  clock or random draw;
* **what** it does (e.g. which array lane gets the NaN) derives from the
  plan seed and the occurrence coordinates, so two runs with the same plan
  corrupt the same element.

Plans are picklable: the multiprocess runner ships them to pool workers,
where :meth:`FaultPlan.worker_fault` matches on ``(rank, attempt)`` --
attempt-indexed matching means a fault fires on the first dispatch of a
chunk and the supervised retry then succeeds, exactly the transient-failure
shape production schedulers see.

Every fired fault is appended to :attr:`FaultPlan.events` (in the firing
process) and counted in the ``resilience.faults_injected`` metric, so a
run can prove both that faults happened *and* that they were recovered.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import get_registry

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "WorkerCrash",
    "RESILIENCE_COUNTERS",
    "fault_seed_from_env",
]

#: Every counter the resilience layer increments.  Pre-registered at zero,
#: they make a fault-free run export an explicit all-zero baseline.
RESILIENCE_COUNTERS = (
    "resilience.faults_injected",
    "resilience.worker_failures",
    "resilience.retries",
    "resilience.respawns",
    "resilience.fallbacks",
    "resilience.rollbacks",
    "resilience.checkpoints",
    "resilience.checkpoint_fallbacks",
    "resilience.solver_escalations",
    "resilience.assembler_degradations",
    "resilience.batch_isolations",
    "resilience.validations",
    "resilience.breaker_trips",
    "resilience.breaker_reroutes",
    "resilience.breaker_resets",
)

#: Counters that indicate a recovery action was taken (subset of
#: :data:`RESILIENCE_COUNTERS`; nonzero in a fault-free run means silent
#: degradation).
RECOVERY_COUNTERS = (
    "resilience.worker_failures",
    "resilience.retries",
    "resilience.respawns",
    "resilience.fallbacks",
    "resilience.rollbacks",
    "resilience.solver_escalations",
    "resilience.assembler_degradations",
    "resilience.checkpoint_fallbacks",
    "resilience.breaker_trips",
)


def fault_seed_from_env(default: int = 1234) -> int:
    """The chaos-suite seed: ``REPRO_FAULT_SEED`` or ``default``."""
    return int(os.environ.get("REPRO_FAULT_SEED", str(default)))


class WorkerCrash(RuntimeError):
    """Injected worker crash (picklable across the pool boundary)."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    site:
        Injection site name.  Wired sites: ``"worker"`` (pool worker, via
        :meth:`FaultPlan.worker_fault`), ``"momentum_rhs"`` (RHS sweep in
        :class:`~repro.physics.fractional_step.FractionalStepSolver`),
        ``"cg"`` (pressure solve, :class:`~repro.physics.pressure.PressureSolver`),
        ``"assembler"`` (compiled/interpreted DSL assembly,
        :class:`~repro.core.unified.UnifiedAssembler`), plus the campaign
        server's service-boundary sites (:mod:`repro.server`):
        ``"server_queue"`` (queue stall before dispatch),
        ``"server_request"`` (request bytes corrupted in flight),
        ``"server_cache"`` (cached result poisoned),
        ``"server_client"`` (slow client, delayed response write) and
        ``"server_exec"`` (executor crash / slowdown while running a job).
    kind:
        ``"crash"`` -- raise :class:`WorkerCrash`; ``"exit"`` -- hard
        ``os._exit`` (dead worker, only detectable by deadline); ``"hang"``
        -- sleep past any deadline; ``"slow"`` -- sleep ``delay`` seconds
        then continue; ``"nan"``/``"inf"`` -- corrupt one array lane;
        ``"breakdown"`` -- sabotage a CG matvec into non-SPD territory;
        ``"corrupt"`` -- garble a request byte stream
        (:meth:`FaultPlan.corrupt_bytes`); ``"poison"`` -- corrupt a
        cached artifact so checksum validation must catch it.
    rank:
        Worker-rank filter (``None`` matches any rank).
    index:
        Fire on the ``index``-th occurrence of the site (for workers: the
        dispatch ``attempt`` number, so retries succeed by default).
    delay:
        Sleep seconds for ``"slow"``/``"hang"`` (hang defaults to 3600 s
        when left at 0 -- far past any sane deadline).
    """

    site: str
    kind: str
    rank: Optional[int] = None
    index: int = 0
    delay: float = 0.0

    _KINDS = (
        "crash",
        "exit",
        "hang",
        "slow",
        "nan",
        "inf",
        "breakdown",
        "corrupt",
        "poison",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{self._KINDS}"
            )

    def payload(self) -> float:
        return math.inf if self.kind == "inf" else math.nan


class FaultPlan:
    """A deterministic schedule of injected faults.

    The plan keeps per-site occurrence counters (process-local) and an
    event log of every fault that fired.  It is picklable; counters and
    events travel with the pickle but diverge per process afterwards --
    worker-side matching is therefore attempt-indexed and stateless.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._counts: Dict[str, int] = {}
        self.events: List[Dict[str, Any]] = []

    # -- construction helpers -------------------------------------------
    @classmethod
    def single(cls, site: str, kind: str, seed: int = 0, **kw) -> "FaultPlan":
        """Plan with one fault (the common chaos-test shape)."""
        return cls([FaultSpec(site=site, kind=kind, **kw)], seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(seed={self.seed}, specs={list(self.specs)})"

    # -- matching --------------------------------------------------------
    def occurrence(self, site: str) -> int:
        """Consume and return the next occurrence number of ``site``."""
        n = self._counts.get(site, 0)
        self._counts[site] = n + 1
        return n

    def _match(
        self, site: str, index: int, rank: Optional[int]
    ) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.site != site or spec.index != index:
                continue
            if spec.rank is not None and rank is not None and spec.rank != rank:
                continue
            return spec
        return None

    def _record(self, spec: FaultSpec, index: int, rank: Optional[int], **detail) -> None:
        self.events.append(
            {
                "site": spec.site,
                "kind": spec.kind,
                "index": index,
                "rank": rank,
                "time_unix": time.time(),
                **detail,
            }
        )
        get_registry().counter("resilience.faults_injected").inc()

    def draw(self, site: str, rank: Optional[int] = None) -> Optional[FaultSpec]:
        """Advance the site's occurrence counter; return a firing spec or
        ``None``.  The caller is responsible for *executing* the fault."""
        index = self.occurrence(site)
        spec = self._match(site, index, rank)
        if spec is not None:
            self._record(spec, index, rank)
        return spec

    # -- array corruption ------------------------------------------------
    def corrupt(
        self, site: str, array: np.ndarray, rank: Optional[int] = None
    ) -> bool:
        """Maybe inject a NaN/Inf into ``array`` (in place).

        Returns ``True`` when a fault fired.  The corrupted flat index is
        a deterministic function of ``(seed, site, occurrence)``.
        """
        index = self.occurrence(site)
        spec = self._match(site, index, rank)
        if spec is None or spec.kind not in ("nan", "inf"):
            return False
        if array.size == 0:
            return False
        rng = np.random.default_rng(
            (self.seed * 1000003 + index) ^ zlib.crc32(site.encode())
        )
        flat = int(rng.integers(0, array.size))
        array.reshape(-1)[flat] = spec.payload()
        self._record(spec, index, rank, flat_index=flat)
        return True

    def corrupt_bytes(
        self, site: str, payload: bytes, rank: Optional[int] = None
    ) -> Tuple[bytes, bool]:
        """Maybe garble a byte payload (``"corrupt"``/``"poison"`` kinds).

        Returns ``(payload, fired)``.  The corrupted offset and the XOR
        mask derive deterministically from ``(seed, site, occurrence)``,
        so a chaos run garbles the same byte of the same request every
        time.  Empty payloads pass through untouched.
        """
        index = self.occurrence(site)
        spec = self._match(site, index, rank)
        if spec is None or spec.kind not in ("corrupt", "poison"):
            return payload, False
        if not payload:
            return payload, False
        rng = np.random.default_rng(
            (self.seed * 1000003 + index) ^ zlib.crc32(site.encode())
        )
        offset = int(rng.integers(0, len(payload)))
        mask = int(rng.integers(1, 256))
        garbled = bytearray(payload)
        garbled[offset] ^= mask
        self._record(spec, index, rank, offset=offset, mask=mask)
        return bytes(garbled), True

    # -- worker-side execution -------------------------------------------
    def worker_fault(self, rank: int, attempt: int) -> Optional[FaultSpec]:
        """Stateless worker-side match on ``(rank, attempt)``.

        Does *not* consume an occurrence counter -- worker processes are
        respawned across retries, so dispatch ``attempt`` is the only
        coordinate that survives.
        """
        return self._match("worker", attempt, rank)

    def note_worker_dispatch(self, rank: int, attempt: int) -> Optional[FaultSpec]:
        """Parent-side accounting of a worker fault about to fire.

        The worker's own event log and counters die with the worker; the
        dispatching parent calls this so ``faults_injected`` and the event
        log survive in the supervising process.
        """
        spec = self._match("worker", attempt, rank)
        if spec is not None:
            self._record(spec, attempt, rank, side="parent")
        return spec

    def execute_worker_fault(self, spec: FaultSpec, rank: int, attempt: int) -> None:
        """Run a worker fault: crash, hard-exit, hang or slow-down."""
        self._record(spec, attempt, rank)
        if spec.kind == "crash":
            raise WorkerCrash(
                f"injected crash in worker rank={rank} attempt={attempt}"
            )
        if spec.kind == "exit":
            os._exit(3)
        if spec.kind == "hang":
            time.sleep(spec.delay or 3600.0)
        elif spec.kind == "slow":
            time.sleep(spec.delay)

    # -- reporting -------------------------------------------------------
    def write_event_log(self, path: str) -> str:
        """Append-free JSONL dump of every fault fired in this process."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    def reset(self) -> None:
        """Forget occurrence counters and events (fresh campaign)."""
        self._counts.clear()
        self.events.clear()
