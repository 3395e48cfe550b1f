#!/usr/bin/env python
"""Campaign-server service-latency benchmark: cold vs warm vs cached.

Boots a :class:`repro.server.CampaignServer` on a loop thread and
measures the end-to-end request latency (client socket -> JSON -> admit
-> execute -> respond) for the three service regimes the caches create:

* ``cold``  -- first request ever: mesh build + plan + tape/codegen
  compile all land on the request path;
* ``warm-mesh`` -- same mesh, new velocity seed: result-cache miss but
  the mesh (and its weak-keyed plan/tape/autotune caches) is hot, so
  **zero** ``plan.builds`` happen on the request path;
* ``cached`` -- identical request: content-hash hit, no recompute at
  all.

The direct in-process library call is measured alongside, so the row
set quantifies the *service overhead* the EXPERIMENTS.md section quotes.
Acceptance (asserted here, gated by the CI ``server`` job): warm and
cached latencies beat cold, and neither warm path re-plans.

``--chaos`` instead drives the deterministic fault sites
(``REPRO_FAULT_SEED``): a corrupted request must be a typed
``malformed``, a poisoned cache entry must be detected and recomputed,
and the healthy requests in between must stay **bitwise identical** to
the direct library call.

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py [--smoke] [--chaos]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import statistics
import sys
import time

import numpy as np

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.unified import UnifiedAssembler  # noqa: E402
from repro.fem.meshgen import box_tet_mesh  # noqa: E402
from repro.obs import get_registry  # noqa: E402
from repro.obs.export import write_bench_json  # noqa: E402
from repro.physics.momentum import AssemblyParams  # noqa: E402
from repro.resilience.faults import FaultPlan, FaultSpec, fault_seed_from_env  # noqa: E402
from repro.server import (  # noqa: E402
    CampaignClient,
    CampaignServer,
    ProtocolError,
    ServerConfig,
)

MESH = {"nx": 4, "ny": 4, "nz": 4}
VARIANT = "RSP"
MODE = "compiled"


def _counter(name: str) -> float:
    snap = get_registry().snapshot().get(name)
    return 0.0 if snap is None else float(snap["value"])


def _direct_ms(velocity_seed: int, repeats: int) -> tuple:
    """Median in-process assemble latency and its RHS sha256."""
    mesh = box_tet_mesh(MESH["nx"], MESH["ny"], MESH["nz"])
    velocity = 0.1 * np.random.default_rng(velocity_seed).standard_normal(
        (mesh.nnode, 3)
    )
    asm = UnifiedAssembler(mesh, AssemblyParams(), mode=MODE)
    rhs = asm.assemble(VARIANT, velocity)  # untimed warmup (plan/tape build)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rhs = asm.assemble(VARIANT, velocity)
        times.append((time.perf_counter() - t0) * 1e3)
    sha = hashlib.sha256(np.ascontiguousarray(rhs).tobytes()).hexdigest()
    return statistics.median(times), sha


def _timed_run(client: CampaignClient, req: dict) -> tuple:
    # one held request: the server pushes the result when the job ends
    t0 = time.perf_counter()
    resp = client.run(req, timeout=300, poll_s=5.0)
    return (time.perf_counter() - t0) * 1e3, resp


def run_bench(repeats: int) -> list:
    """The cold/warm-mesh/cached latency rows (plus the direct row)."""
    direct_ms, direct_sha = _direct_ms(velocity_seed=0, repeats=repeats)

    server = CampaignServer(ServerConfig(workers=1))
    handle = server.start_in_thread()
    client = CampaignClient(port=handle.port, timeout=300)
    entries = []
    try:
        base = {"kind": "assemble", "mesh": MESH, "variant": VARIANT,
                "mode": MODE}

        builds0 = _counter("plan.builds")
        cold_ms, resp = _timed_run(client, {**base, "velocity_seed": 0})
        assert resp["result"]["sha256"] == direct_sha, (
            "served assembly diverged from the direct library call"
        )
        assert _counter("plan.builds") > builds0, (
            "cold request should have built the plan"
        )

        # warm mesh: new seeds -> result-cache misses, plan stays hot
        builds1 = _counter("plan.builds")
        warm_times = []
        for i in range(repeats):
            ms, resp = _timed_run(client, {**base, "velocity_seed": 100 + i})
            assert resp.get("cached") is not True
            warm_times.append(ms)
        warm_ms = statistics.median(warm_times)
        assert _counter("plan.builds") == builds1, (
            "warm-mesh requests must not re-plan"
        )

        # cached: identical request -> content-hash hit
        cached_times = []
        for _ in range(repeats):
            ms, resp = _timed_run(client, {**base, "velocity_seed": 0})
            assert resp.get("cached") is True, "identical request must hit"
            cached_times.append(ms)
        cached_ms = statistics.median(cached_times)
        assert _counter("plan.builds") == builds1

        assert warm_ms < cold_ms, (
            f"warm-mesh latency {warm_ms:.1f} ms should beat cold "
            f"{cold_ms:.1f} ms (plan build amortized)"
        )
        assert cached_ms < cold_ms, (
            f"cached latency {cached_ms:.1f} ms should beat cold "
            f"{cold_ms:.1f} ms"
        )

        overhead_ms = warm_ms - direct_ms
        for phase, ms in (
            ("direct", direct_ms),
            ("cold", cold_ms),
            ("warm-mesh", warm_ms),
            ("cached", cached_ms),
        ):
            entries.append({
                "benchmark": "server",
                "variant": VARIANT,
                "mode": MODE,
                "executor": phase,  # the like-for-like axis for this bench
                "wall_ms": ms,
            })
        entries.append({
            "benchmark": "server",
            "variant": VARIANT,
            "mode": MODE,
            "executor": "overhead",
            "wall_ms": max(overhead_ms, 0.0),
        })
        print(
            f"bench_server: direct {direct_ms:8.2f} ms | "
            f"cold {cold_ms:8.2f} ms | warm-mesh {warm_ms:8.2f} ms | "
            f"cached {cached_ms:8.2f} ms | service overhead "
            f"{overhead_ms:+.2f} ms"
        )
    finally:
        handle.stop()
    return entries


def run_chaos() -> None:
    """Deterministic fault pass: typed failures, bitwise-healthy service."""
    seed = fault_seed_from_env()
    plan = FaultPlan(
        [
            FaultSpec(site="server_request", kind="corrupt", index=0),
            FaultSpec(site="server_cache", kind="poison", index=0),
        ],
        seed=seed,
    )
    _, direct_sha = _direct_ms(velocity_seed=0, repeats=1)
    server = CampaignServer(ServerConfig(workers=1), fault_plan=plan)
    handle = server.start_in_thread()
    client = CampaignClient(port=handle.port, timeout=300)
    try:
        req = {"kind": "assemble", "mesh": MESH, "variant": VARIANT,
               "mode": MODE, "velocity_seed": 0}
        try:
            client.run(req)
            raise AssertionError("corrupted request was not rejected")
        except ProtocolError as exc:
            assert exc.code == "malformed", exc.code
        first = client.run(req)  # healthy; fills the result cache
        assert first["result"]["sha256"] == direct_sha
        poisons0 = _counter("server.cache.poison_detected")
        second = client.run(req)  # poisoned read -> detected -> recompute
        assert _counter("server.cache.poison_detected") == poisons0 + 1
        assert second["result"]["sha256"] == direct_sha
        print(
            f"bench_server: chaos OK (seed={seed}) -- corrupted request "
            "typed malformed, cache poison detected and recomputed, "
            "healthy responses bitwise-identical to the library"
        )
    finally:
        handle.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="fewer repeats (the CI server job)")
    ap.add_argument("--chaos", action="store_true",
                    help="run the deterministic fault pass instead of timing")
    ap.add_argument("--out", default=None,
                    help="output path (default <bench dir>/BENCH_server.json)")
    args = ap.parse_args(argv)

    if args.chaos:
        run_chaos()
        return 0

    repeats = 3 if args.smoke else 9
    entries = run_bench(repeats)
    out = args.out or os.path.join(
        os.environ.get("REPRO_BENCH_DIR", str(_REPO_ROOT)),
        "BENCH_server.json",
    )
    write_bench_json(out, entries, metrics=get_registry(),
                     meta={"repeats": repeats, "mesh": MESH})
    print(f"bench_server: wrote {out} ({len(entries)} entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
