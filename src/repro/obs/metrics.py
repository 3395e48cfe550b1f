"""Process-wide metric registry: counters, gauges and histograms.

The registry is the reproduction's analogue of a LIKWID counter group --
named, monotonically accumulated quantities (CG iterations, compiler
builds, elements assembled) that :meth:`MetricsRegistry.snapshot` flattens
for the end-to-end benchmark and :func:`repro.obs.export.prometheus_text`.
Names are dotted paths (``"cg.iterations"``,
``"codegen.native_builds"``); the registry creates instruments lazily on
first use so call sites stay one-liners::

    get_registry().counter("cg.iterations").inc(result.iterations)
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]


class Counter:
    """Monotonic accumulator."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written value (e.g. current residual norm)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Streaming distribution summary (count/sum/min/max + reservoir).

    Keeps at most ``max_samples`` raw observations via Vitter's
    reservoir sampling (Algorithm R), so a bounded sample stays uniform
    over the *whole* stream -- a first-N cap would freeze the sample on
    the earliest observations and bias long-run quantiles toward warmup
    behaviour.  The reservoir RNG is seeded from the instrument name, so
    two runs recording the same stream keep identical samples.  The
    scalar summary (count/sum/min/max/mean) is always exact; the
    p50/p95/p99 quantiles in :meth:`snapshot` are reservoir estimates.
    """

    kind = "histogram"

    def __init__(self, name: str, max_samples: int = 512) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.max_samples = int(max_samples)
        self.samples: List[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
        else:
            # Algorithm R: element i of the stream replaces a reservoir
            # slot with probability max_samples / i.
            j = self._rng.randrange(self.count)
            if j < self.max_samples:
                self.samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile (``q`` in [0, 100]) of the reservoir."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "samples": list(self.samples),
        }


_Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, created lazily, snapshot-able."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get(self, name: str, factory) -> _Instrument:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory(name)
                self._instruments[name] = inst
            return inst

    def counter(self, name: str) -> Counter:
        inst = self._get(name, Counter)
        if not isinstance(inst, Counter):
            raise TypeError(f"metric {name!r} is a {inst.kind}, not a counter")
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._get(name, Gauge)
        if not isinstance(inst, Gauge):
            raise TypeError(f"metric {name!r} is a {inst.kind}, not a gauge")
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._get(name, Histogram)
        if not isinstance(inst, Histogram):
            raise TypeError(f"metric {name!r} is a {inst.kind}, not a histogram")
        return inst

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready ``{name: {kind, ...}}`` view of every instrument."""
        with self._lock:
            return {n: i.snapshot() for n, i in sorted(self._instruments.items())}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install a process-wide default registry (fresh one if ``None``);
    returns the installed registry."""
    global _default_registry
    _default_registry = registry if registry is not None else MetricsRegistry()
    return _default_registry
