"""Storage classes and memory-event records for the kernel DSL.

The paper's whole optimization story is about *where temporary values live*:

* ``GLOBAL_TEMP`` -- the baseline style: every intermediate is an array with
  an extra leading ``VECTOR_DIM`` dimension, allocated in global memory
  (GPU) / as a stack array streamed through the cache hierarchy (CPU).
  Loads and stores are coalesced but *every assignment round-trips through
  memory* ("even for zero initialization, the compilers emit the store of a
  zero to memory, just to reload the zero a few instructions later").
* ``PRIVATE`` -- after privatization: the array is per-thread.  With
  compile-time-constant indices the compiler promotes the slots to
  **registers**; runtime indices or register exhaustion demote them to
  **local memory** (Table III of the paper studies exactly these three
  mappings).
* ``MESH`` -- true global data: node coordinates, velocity, the global RHS.
  Gathers are indirect (data-dependent addresses) and scatters are atomic
  reductions.
* ``PARAM`` -- runtime scalar parameters / option flags read from input
  (the generality that *specialization* turns into compile-time constants).

The :class:`MemoryEvent` records emitted by the tracing backend carry enough
information for the machine models to synthesize line-accurate address
streams per warp / SIMD group.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

__all__ = [
    "Storage",
    "TempSpec",
    "MemoryEvent",
    "AccessKind",
]


class Storage(enum.Enum):
    """Where a temporary array's values live."""

    GLOBAL_TEMP = "global_temp"
    PRIVATE = "private"
    MESH = "mesh"
    PARAM = "param"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Storage.{self.name}"


class AccessKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    ATOMIC_ADD = "atomic_add"


@dataclasses.dataclass(frozen=True)
class TempSpec:
    """Declaration of a temporary array inside a kernel.

    Attributes
    ----------
    name:
        Alya-style identifier (``gpcar``, ``elauu``, ...).
    shape:
        Per-lane shape; the numpy backend adds the leading lane dimension.
    storage:
        Storage class.
    """

    name: str
    shape: Tuple[int, ...]
    storage: Storage
    #: True when every index into the array is a compile-time constant (the
    #: consequence of *specialization*: fixed node/Gauss counts let the
    #: compiler fully unroll the loops).  Private arrays with static indices
    #: are register-mappable; private arrays with runtime indices live in
    #: local memory (Table III, cases 3 vs 2).
    static: bool = False
    #: Allocation contract: ``True`` promises that the kernel stores into
    #: every slot it later loads, so the execution backend may hand out
    #: *uninitialized* memory (``np.empty``) instead of zero-filling -- the
    #: Python analogue of the paper's observation that "even for zero
    #: initialization, the compilers emit the store of a zero to memory,
    #: just to reload the zero a few instructions later".  With the default
    #: ``False`` the backend keeps the seed ``np.zeros`` semantics and a
    #: load of a never-stored slot reads 0.0.  Declaring ``True`` for a
    #: temporary that *does* read before writing is undefined behaviour
    #: (garbage values); the variant bit-equality tests pin the contract.
    write_before_read: bool = False

    @property
    def size(self) -> int:
        """Number of scalar slots per lane."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def linear_index(self, idx: Tuple[int, ...]) -> int:
        """Row-major linear index of ``idx`` within the per-lane shape."""
        if len(idx) != len(self.shape):
            raise IndexError(
                f"{self.name}: index {idx} does not match shape {self.shape}"
            )
        lin = 0
        for i, (ix, dim) in enumerate(zip(idx, self.shape)):
            if not 0 <= ix < dim:
                raise IndexError(
                    f"{self.name}: index {idx} out of bounds for {self.shape}"
                )
            lin = lin * dim + ix
        return lin


@dataclasses.dataclass(frozen=True)
class MemoryEvent:
    """One memory access of the recorded kernel pattern.

    For ``GLOBAL_TEMP``/``PRIVATE`` accesses ``offset`` is the linear slot
    index inside the owning array; the machine model combines it with the
    array base and the lane/thread id to form addresses.  For ``MESH``
    accesses ``node_slot`` identifies which local node's global id provides
    the (data-dependent) address and ``component`` the field component.
    """

    kind: AccessKind
    storage: Storage
    array: str
    offset: int = 0
    node_slot: Optional[int] = None
    component: int = 0
    bytes_per_lane: int = 8

    def is_store(self) -> bool:
        return self.kind in (AccessKind.STORE, AccessKind.ATOMIC_ADD)
