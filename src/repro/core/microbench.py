"""The paper's Listing 3 privatization micro-study (Table III).

A tiny kernel -- fill an 8-slot ``temp`` array, then reduce it into ``B`` --
compiled three ways:

1. ``temp`` as a global, ``VECTOR_DIM``-strided 2-D array  -> global memory
2. ``temp`` as a private array with runtime indexing       -> local memory
3. ``temp`` as a private array with compile-time indexing  -> registers

Table III reports, per thread: local/global store instructions and the
store data volumes reaching L2 and DRAM.  The mechanism: *both* local and
global stores write through to the L2, but only global stores must reach
DRAM -- local lines of finished threads are invalidated in place.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from ..machine.gpu import GpuModel
from ..machine.traffic import forwarded
from .dsl import Backend, KernelContext, TracingBackend
from .storage import Storage

__all__ = ["Listing3Result", "run_listing3", "make_listing3_kernel", "ROWLEN"]

ROWLEN = 8


def make_listing3_kernel(storage: Storage, static: bool):
    """Listing 3: ``temp(row) = row * A``; ``B = sum(temp)``."""

    def kernel(bk: Backend, ctx: KernelContext) -> None:
        a_arr = bk.temp("A", (1,), Storage.GLOBAL_TEMP)
        b_arr = bk.temp("B", (1,), Storage.GLOBAL_TEMP)
        temp = bk.temp("temp", (ROWLEN,), storage, static=static)
        a = bk.load(a_arr, (0,))
        for row in range(ROWLEN):
            bk.store(temp, (row,), float(row + 1) * a)
        acc = bk.const(0.0)
        for row in range(ROWLEN):
            acc = acc + bk.load(temp, (row,))
        bk.store(b_arr, (0,), acc)

    return kernel


@dataclasses.dataclass(frozen=True)
class Listing3Result:
    """Per-thread store statistics for one mapping (a Table III column)."""

    mapping: str
    local_stores: int
    global_stores: int
    l2_store_bytes: int
    dram_store_bytes: int


def run_listing3() -> Dict[str, Listing3Result]:
    """Run the micro-study; keys are ``global``/``local``/``registers``."""
    model = GpuModel()
    dummy_ctx = KernelContext(
        connectivity=np.zeros((1, 4), dtype=np.int64),
        coords=np.zeros((4, 3)),
        fields={},
        rhs=np.zeros((4, 3)),
        params={},
    )
    cases = {
        "global": (Storage.GLOBAL_TEMP, False),
        "local": (Storage.PRIVATE, False),
        "registers": (Storage.PRIVATE, True),
    }
    out: Dict[str, Listing3Result] = {}
    for name, (storage, static) in cases.items():
        bk = TracingBackend(dummy_ctx)
        make_listing3_kernel(storage, static)(bk, dummy_ctx)
        report = bk.finalize()
        region_of = model.map_storage(report).region_of
        # the store instructions that remain: a promoted array has none
        stores = [
            region
            for region, ev in forwarded(report, region_of, window=0)
            if ev.is_store()
        ]
        local_stores = stores.count("local")
        global_stores = stores.count("global")
        # Both store kinds write through to L2; only global stores must
        # eventually reach DRAM (local lines are invalidated on thread
        # exit, assuming -- as in the paper's test -- no capacity eviction).
        l2_bytes = (local_stores + global_stores) * 8
        dram_bytes = global_stores * 8
        out[name] = Listing3Result(
            mapping=name,
            local_stores=local_stores,
            global_stores=global_stores,
            l2_store_bytes=l2_bytes,
            dram_store_bytes=dram_bytes,
        )
    return out
