"""Cache simulator.

:class:`LruCache` is a fully-associative LRU over line ids (an
``OrderedDict`` move-to-front): at the line granularities we simulate, full
associativity is an adequate model of the high-associativity L1/L2 caches
on both machines, and it is the fastest thing Python can do per access.

It exposes ``access(line, store) -> hit`` plus dirty
line tracking with an eviction callback, and ``invalidate`` used by the GPU
model to drop *local-memory* lines of finished threads without writeback
(the mechanism behind Table III's "local stores are not always written back
to DRAM").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

__all__ = ["LruCache", "CacheStats"]


class CacheStats:
    """Hit/miss/writeback accounting for one cache level.

    ``*_units`` fields accumulate the *weights* of accesses (the GPU model
    uses one weight unit per 32-byte sector, so a coalesced 256-byte warp
    access carries weight 8 while a scattered sector carries weight 1).
    """

    __slots__ = (
        "hits",
        "misses",
        "store_hits",
        "store_misses",
        "writebacks",
        "invalidated_dirty",
        "hit_units",
        "miss_units",
        "writeback_units",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.writebacks = 0
        self.invalidated_dirty = 0
        self.hit_units = 0
        self.miss_units = 0
        self.writeback_units = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.accesses
        return self.hits / n if n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.3f}, writebacks={self.writebacks})"
        )


class LruCache:
    """Fully-associative LRU cache over integer line ids.

    Parameters
    ----------
    capacity_lines:
        Number of lines the cache holds (capacity / line size).
    on_evict:
        Optional callback ``(line, dirty) -> None`` fired on every eviction
        (used to chain levels and count writebacks).
    """

    def __init__(
        self,
        capacity_lines: int,
        on_evict: Optional[Callable[[int, bool], None]] = None,
    ) -> None:
        if capacity_lines < 1:
            raise ValueError("cache needs at least one line")
        self.capacity = int(capacity_lines)
        self.on_evict = on_evict
        self.stats = CacheStats()
        # line -> [dirty, weight]
        self._lines: "OrderedDict[int, list]" = OrderedDict()
        self._weight = 0

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def weight(self) -> int:
        """Total resident weight (equals len() for unit-weight use)."""
        return self._weight

    def access(self, line: int, store: bool = False, weight: int = 1) -> bool:
        """Touch a line; returns True on hit.  Misses allocate (write-allocate).

        ``weight`` is the line's footprint in capacity units and is also
        what the ``*_units`` statistics accumulate.
        """
        lines = self._lines
        stats = self.stats
        entry = lines.get(line)
        if entry is not None:
            lines.move_to_end(line)
            if store:
                entry[0] = True
                stats.store_hits += 1
            stats.hits += 1
            stats.hit_units += entry[1]
            return True
        stats.misses += 1
        stats.miss_units += weight
        if store:
            stats.store_misses += 1
        lines[line] = [store, weight]
        self._weight += weight
        while self._weight > self.capacity:
            old, (dirty, w) = lines.popitem(last=False)
            self._weight -= w
            if dirty:
                stats.writebacks += 1
                stats.writeback_units += w
            if self.on_evict is not None:
                self.on_evict(old, dirty)
        return False

    def contains(self, line: int) -> bool:
        return line in self._lines

    def invalidate(self, lines) -> int:
        """Drop lines without writeback; returns how many were present."""
        n = 0
        for line in lines:
            entry = self._lines.pop(line, None)
            if entry is not None:
                n += 1
                self._weight -= entry[1]
                if entry[0]:
                    self.stats.invalidated_dirty += 1
        return n

    def dirty_weight(self) -> int:
        """Total weight of resident dirty lines."""
        return sum(e[1] for e in self._lines.values() if e[0])

    def flush(self) -> int:
        """Evict everything; returns the number of dirty writebacks."""
        n = 0
        while self._lines:
            line, (dirty, w) = self._lines.popitem(last=False)
            self._weight -= w
            if dirty:
                n += 1
                self.stats.writebacks += 1
                self.stats.writeback_units += w
            if self.on_evict is not None:
                self.on_evict(line, dirty)
        return n

