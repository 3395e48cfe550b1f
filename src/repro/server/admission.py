"""Admission control: bounded queue, per-tenant quotas, load shedding.

The server's availability story starts at the front door.  Work is only
admitted while (a) the global in-flight count (queued + running) is
below ``max_queue_depth`` and (b) the submitting tenant is below its
``max_per_tenant`` quota -- otherwise the request is rejected *now* with
a typed code (``shed`` / ``quota_exceeded``) and a ``Retry-After`` hint,
instead of queuing into a latency cliff.

The hint is an EWMA of recent service times scaled by the queue depth:
``retry_after = ewma_service_s * (depth + 1) / workers`` -- i.e. "when
your spot in line would actually start".  It is deliberately a hint, not
a promise; its only job is to spread thundering-herd retries.
"""

from __future__ import annotations

import threading
from typing import Dict

from ..obs.metrics import get_registry
from .protocol import ProtocolError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Thread-safe admission gate for the campaign server.

    :meth:`admit` either reserves a slot (caller must :meth:`release`
    it in a ``finally``) or raises a typed :class:`ProtocolError`.
    """

    def __init__(
        self,
        max_queue_depth: int = 16,
        max_per_tenant: int = 4,
        workers: int = 1,
        ewma_alpha: float = 0.3,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if max_per_tenant < 1:
            raise ValueError("max_per_tenant must be >= 1")
        self.max_queue_depth = int(max_queue_depth)
        self.max_per_tenant = int(max_per_tenant)
        self.workers = max(1, int(workers))
        self.ewma_alpha = float(ewma_alpha)
        self._lock = threading.Lock()
        self._depth = 0
        self._per_tenant: Dict[str, int] = {}
        self._ewma_service_s = 0.05  # optimistic prior; converges fast
        self._draining = False

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def start_draining(self) -> None:
        with self._lock:
            self._draining = True

    def retry_after(self) -> float:
        """Seconds until a freed slot would plausibly start serving."""
        with self._lock:
            depth = self._depth
            ewma = self._ewma_service_s
        return ewma * (depth + 1) / self.workers

    def record_service_time(self, seconds: float) -> None:
        a = self.ewma_alpha
        with self._lock:
            self._ewma_service_s = (
                a * float(seconds) + (1.0 - a) * self._ewma_service_s
            )

    # ------------------------------------------------------------------
    def admit(self, tenant: str) -> None:
        """Reserve one slot for ``tenant`` or raise a typed rejection.

        Rejections: ``draining`` (server told to stop admitting),
        ``shed`` (global queue full), ``quota_exceeded`` (tenant at its
        in-flight cap).  All carry a ``Retry-After`` hint.  The caller
        counts the rejection (one ``server.rejections.<code>`` increment
        per refused request, at the response boundary).
        """
        hint = self.retry_after()
        with self._lock:
            if self._draining:
                err = ProtocolError(
                    "draining", "server is draining; resubmit later",
                    retry_after=hint,
                )
            elif self._depth >= self.max_queue_depth:
                err = ProtocolError(
                    "shed",
                    f"queue full ({self._depth}/{self.max_queue_depth})",
                    retry_after=hint,
                )
            elif self._per_tenant.get(tenant, 0) >= self.max_per_tenant:
                err = ProtocolError(
                    "quota_exceeded",
                    f"tenant {tenant!r} at quota "
                    f"({self._per_tenant[tenant]}/{self.max_per_tenant})",
                    retry_after=hint,
                )
            else:
                self._depth += 1
                self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1
                get_registry().gauge("server.queue_depth").set(self._depth)
                return
        raise err

    def release(self, tenant: str) -> None:
        """Free a slot reserved by :meth:`admit` (call from ``finally``)."""
        with self._lock:
            self._depth = max(0, self._depth - 1)
            n = self._per_tenant.get(tenant, 0) - 1
            if n <= 0:
                self._per_tenant.pop(tenant, None)
            else:
                self._per_tenant[tenant] = n
            get_registry().gauge("server.queue_depth").set(self._depth)
