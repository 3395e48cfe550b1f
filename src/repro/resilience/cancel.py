"""Cooperative cancellation: deadlines and drain signals that unwind cleanly.

Long-running campaign work (time integration, batched assemblies) cannot
be interrupted preemptively without risking corrupted state.  Instead,
every long loop accepts a :class:`CancelToken` and calls
:meth:`CancelToken.check` at its natural commit points (between time
steps).  A tripped token raises :class:`CooperativeCancel` *there*, so the
loop's own ``finally`` blocks run and checkpoints stay consistent.

Tokens carry a *reason* so the unwinding code can distinguish a missed
deadline (``"deadline"`` -- the campaign server rejects the request with a
typed ``deadline_exceeded`` error) from a graceful drain (``"drain"`` --
in-flight campaigns checkpoint their state before exiting).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

__all__ = ["CooperativeCancel", "CancelToken"]


class CooperativeCancel(RuntimeError):
    """Raised at a cooperative checkpoint of a cancelled operation.

    ``reason`` is machine-readable (``"deadline"``, ``"drain"``,
    ``"shutdown"``, or whatever the canceller passed); ``message`` is the
    human-readable detail.
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or f"cancelled ({reason})")
        self.reason = reason


class CancelToken:
    """Thread-safe cancellation flag with an optional deadline.

    A token is cancelled either explicitly (:meth:`cancel`) or implicitly
    when its deadline passes -- :meth:`check` notices the expiry lazily,
    so no timer thread is needed.  Tokens cross thread boundaries freely
    (the campaign server cancels from its asyncio loop while the job runs
    in an executor thread).

    Parameters
    ----------
    deadline_s:
        Seconds from now after which :meth:`check` raises with reason
        ``"deadline"``; ``None`` means no deadline.
    clock:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._reason: Optional[str] = None
        self.deadline: Optional[float] = (
            None if deadline_s is None else clock() + float(deadline_s)
        )

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token (first reason wins; later calls are no-ops)."""
        with self._lock:
            if self._reason is None:
                self._reason = str(reason)

    @property
    def cancelled(self) -> bool:
        """True once tripped explicitly or past the deadline."""
        with self._lock:
            if self._reason is not None:
                return True
        return self.expired()

    @property
    def reason(self) -> Optional[str]:
        """The cancellation reason (``"deadline"`` for a lazy expiry)."""
        with self._lock:
            if self._reason is not None:
                return self._reason
        return "deadline" if self.expired() else None

    def expired(self) -> bool:
        return self.deadline is not None and self._clock() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (never negative); ``None`` = no
        deadline."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def check(self) -> None:
        """Raise :class:`CooperativeCancel` if cancelled or expired."""
        with self._lock:
            reason = self._reason
        if reason is not None:
            raise CooperativeCancel(reason)
        if self.expired():
            raise CooperativeCancel("deadline", "deadline exceeded")
