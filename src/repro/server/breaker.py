"""Circuit breakers per (variant, mode): stop hammering a failing rung.

The degradation ladder (:mod:`repro.resilience.ladders`) already answers
"this assembly failed -- run it some other way".  The breaker answers the
*fleet-level* question: "this rung has failed repeatedly -- stop routing
new work through it at all, for a while".  Without it, every request
pays the failed attempt before degrading; with it, the server routes
straight to the healthiest closed rung and periodically probes the
broken one.

Classic three-state machine per key:

* **closed** -- healthy, requests flow; ``failure_threshold``
  consecutive failures trip it (``resilience.breaker_trips``);
* **open** -- requests skip this rung (``resilience.breaker_reroutes``)
  until ``reset_timeout_s`` elapses;
* **half-open** -- one probe request is allowed through; success closes
  the breaker (``resilience.breaker_resets``), failure re-opens it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Hashable, List

from ..obs.metrics import get_registry
from ..resilience.ladders import MODE_LADDER

__all__ = ["CircuitBreaker", "MODE_LADDER"]



class CircuitBreaker:
    """Keyed three-state circuit breaker (thread-safe).

    Keys are arbitrary hashables -- the server uses ``(variant, mode)``.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        self._lock = threading.Lock()
        # key -> [state, consecutive_failures, opened_at]
        self._states: Dict[Hashable, List] = {}

    def _entry(self, key: Hashable) -> List:
        return self._states.setdefault(key, [self.CLOSED, 0, 0.0])

    # ------------------------------------------------------------------
    def state(self, key: Hashable) -> str:
        """Current state, with the lazy open -> half-open transition."""
        with self._lock:
            entry = self._entry(key)
            if (
                entry[0] == self.OPEN
                and self._clock() - entry[2] >= self.reset_timeout_s
            ):
                entry[0] = self.HALF_OPEN
            return entry[0]

    def allow(self, key: Hashable) -> bool:
        """May a request be routed through ``key`` right now?

        Open breakers refuse (counted in ``resilience.breaker_reroutes``
        -- the caller is about to pick another rung); half-open admits
        the probe.
        """
        if self.state(key) != self.OPEN:
            return True
        get_registry().counter("resilience.breaker_reroutes").inc()
        return False

    def record_success(self, key: Hashable) -> None:
        with self._lock:
            entry = self._entry(key)
            was_probing = entry[0] == self.HALF_OPEN
            entry[0] = self.CLOSED
            entry[1] = 0
        if was_probing:
            get_registry().counter("resilience.breaker_resets").inc()

    def record_failure(self, key: Hashable) -> None:
        tripped = False
        with self._lock:
            entry = self._entry(key)
            if entry[0] == self.HALF_OPEN:
                # failed probe: straight back to open, fresh timeout
                entry[0] = self.OPEN
                entry[2] = self._clock()
                tripped = True
            else:
                entry[1] += 1
                if entry[1] >= self.failure_threshold:
                    entry[0] = self.OPEN
                    entry[2] = self._clock()
                    tripped = True
        if tripped:
            get_registry().counter("resilience.breaker_trips").inc()

    # ------------------------------------------------------------------
    def route(self, variant: str, preferred_mode: str) -> List[str]:
        """The rungs a request may try, healthiest-preferred order.

        Starts at ``preferred_mode``'s ladder position and walks down,
        keeping only rungs whose breaker currently admits traffic.  An
        empty list means every rung is open -- the caller rejects with
        ``breaker_open``.
        """
        if preferred_mode not in MODE_LADDER:
            raise ValueError(
                f"unknown mode {preferred_mode!r}; expected one of {MODE_LADDER}"
            )
        start = MODE_LADDER.index(preferred_mode)
        return [
            mode
            for mode in MODE_LADDER[start:]
            if self.allow((variant, mode))
        ]

    def snapshot(self) -> Dict[str, str]:
        """``{"VARIANT/mode": state}`` for the ``/stats`` endpoint."""
        with self._lock:
            keys = list(self._states)
        return {
            "/".join(str(part) for part in key): self.state(key)
            for key in keys
        }
