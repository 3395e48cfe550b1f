"""Deterministic, seedable fault injection.

Long LES campaigns on thousands of ranks fail in mundane ways: an
executor crashes or stalls, an RHS sweep produces a NaN, a CG solve
breaks down, a request or a cached result is corrupted in flight.  Every
recovery path in :mod:`repro` is driven by *injected* versions of those
faults so chaos tests exercise the machinery rather than hoping for it.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus a seed.
Injection is deterministic twice over:

* **where** a fault fires is selected by ``(site, index)`` -- the
  ``index``-th occurrence of an injection *site* (``"momentum_rhs"``,
  ``"cg"``, ``"assembler"``, ``"server_exec"``, ...) -- never by wall
  clock or random draw;
* **what** it does (e.g. which array lane gets the NaN) derives from the
  plan seed and the occurrence coordinates, so two runs with the same plan
  corrupt the same element.

Every fired fault is appended to :attr:`FaultPlan.events` (in the firing
process) and counted in the ``resilience.faults_injected`` metric, so a
run can prove both that faults happened *and* that they were recovered.
"""

from __future__ import annotations

import dataclasses
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
    "fault_seed_from_env",
]

def fault_seed_from_env(default: int = 1234) -> int:
    """The chaos-suite seed: ``REPRO_FAULT_SEED`` or ``default``."""
    return int(os.environ.get("REPRO_FAULT_SEED", str(default)))


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    site:
        Injection site name.  Wired sites: ``"momentum_rhs"`` (RHS sweep in
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
        ``"crash"`` -- fail the running job; ``"slow"`` -- stall
        ``delay`` seconds, capped by the site, then continue;
        ``"nan"``/``"inf"`` -- corrupt one array lane;
        ``"breakdown"`` -- sabotage a CG matvec into non-SPD territory;
        ``"corrupt"`` -- garble a request byte stream
        (:meth:`FaultPlan.corrupt_bytes`); ``"poison"`` -- corrupt a
        cached artifact so checksum validation must catch it.
    index:
        Fire on the ``index``-th occurrence of the site.
    delay:
        Stall seconds for ``"slow"`` (0: the site's cap).
    """

    site: str
    kind: str
    index: int = 0
    delay: float = 0.0

    _KINDS = (
        "crash",
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
    event log of every fault that fired.
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

    def _match(self, site: str, index: int) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.site == site and spec.index == index:
                return spec
        return None

    def _record(self, spec: FaultSpec, index: int, **detail) -> None:
        self.events.append(
            {
                "site": spec.site,
                "kind": spec.kind,
                "index": index,
                "time_unix": time.time(),
                **detail,
            }
        )
        get_registry().counter("resilience.faults_injected").inc()

    def draw(self, site: str) -> Optional[FaultSpec]:
        """Advance the site's occurrence counter; return a firing spec or
        ``None``.  The caller is responsible for *executing* the fault."""
        index = self.occurrence(site)
        spec = self._match(site, index)
        if spec is not None:
            self._record(spec, index)
        return spec

    # -- array corruption ------------------------------------------------
    def corrupt(self, site: str, array: np.ndarray) -> bool:
        """Maybe inject a NaN/Inf into ``array`` (in place).

        Returns ``True`` when a fault fired.  The corrupted flat index is
        a deterministic function of ``(seed, site, occurrence)``.
        """
        index = self.occurrence(site)
        spec = self._match(site, index)
        if spec is None or spec.kind not in ("nan", "inf"):
            return False
        if array.size == 0:
            return False
        rng = np.random.default_rng(
            (self.seed * 1000003 + index) ^ zlib.crc32(site.encode())
        )
        flat = int(rng.integers(0, array.size))
        array.reshape(-1)[flat] = spec.payload()
        self._record(spec, index, flat_index=flat)
        return True

    def corrupt_bytes(self, site: str, payload: bytes) -> Tuple[bytes, bool]:
        """Maybe garble a byte payload (``"corrupt"``/``"poison"`` kinds).

        Returns ``(payload, fired)``.  The corrupted offset and the XOR
        mask derive deterministically from ``(seed, site, occurrence)``,
        so a chaos run garbles the same byte of the same request every
        time.  Empty payloads pass through untouched.
        """
        index = self.occurrence(site)
        spec = self._match(site, index)
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
        self._record(spec, index, offset=offset, mask=mask)
        return bytes(garbled), True
