"""Chaos acceptance for the campaign server.

Every service-boundary fault site (``server_request``, ``server_cache``,
``server_queue``, ``server_client``, ``server_exec``) plus the in-server
``assembler`` degradation path fires under a fixed ``REPRO_FAULT_SEED``
and the server stays available: healthy requests remain **bitwise
identical** to direct library calls, every refusal carries a typed code,
and poisoned cache entries are detected and recomputed.
"""

import hashlib

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.resilience.faults import FaultPlan
from repro.server import (
    CampaignClient,
    CampaignServer,
    ProtocolError,
    ServerConfig,
)

SEED = 1234  # the CI chaos seed (REPRO_FAULT_SEED default)
MESH = {"nx": 2, "ny": 2, "nz": 2}


def _count(name):
    snap = get_registry().snapshot().get(name)
    return 0 if snap is None else snap["value"]


def _serve(fault_plan, config=None):
    server = CampaignServer(config or ServerConfig(workers=1),
                            fault_plan=fault_plan)
    handle = server.start_in_thread()
    return server, handle, CampaignClient(port=handle.port, timeout=60)


def _direct_sha(velocity_seed, forcings=None):
    """sha256 of the direct library call: one ``assemble``, or ``run_batch``
    over the ``forcings`` (one z body force per scenario)."""
    from repro.core.unified import UnifiedAssembler
    from repro.fem.meshgen import box_tet_mesh
    from repro.physics.momentum import AssemblyParams

    mesh = box_tet_mesh(2, 2, 2)
    velocity = 0.1 * np.random.default_rng(velocity_seed).standard_normal(
        (mesh.nnode, 3)
    )
    asm = UnifiedAssembler(mesh, AssemblyParams(), mode="compiled")
    if forcings is None:
        rhs = asm.assemble("RSP", velocity)
    else:
        params = [AssemblyParams(body_force=(0.0, 0.0, f)) for f in forcings]
        rhs = asm.run_batch("RSP", params, velocity)
    return hashlib.sha256(np.ascontiguousarray(rhs).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# request corruption
# ---------------------------------------------------------------------------

def test_corrupted_request_is_typed_malformed_and_next_request_healthy():
    plan = FaultPlan.single("server_request", "corrupt", seed=SEED, index=0)
    server, handle, client = _serve(plan)
    try:
        before = _count("server.rejections.malformed")
        req = {"kind": "assemble", "mesh": MESH, "mode": "compiled",
               "velocity_seed": 3}
        with pytest.raises(ProtocolError) as err:
            client.run(req)
        assert err.value.code == "malformed"
        assert _count("server.rejections.malformed") == before + 1
        # the fault fired exactly once; the retry goes through untouched
        # and is bitwise identical to the direct library call.
        resp = client.run({**req, "return_field": False})
        assert resp["result"]["sha256"] == _direct_sha(3)
        assert plan.events and plan.events[0]["site"] == "server_request"
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# cache poisoning
# ---------------------------------------------------------------------------

def test_poisoned_cache_detected_and_recomputed_bitwise_identical():
    # a miss never reaches the corruption hook, so the warm lookup that
    # returns the stored blob is site occurrence 0.
    plan = FaultPlan.single("server_cache", "poison", seed=SEED, index=0)
    server, handle, client = _serve(plan)
    try:
        req = {"kind": "assemble", "mesh": MESH, "mode": "compiled",
               "velocity_seed": 4}
        first = client.run(req)
        poisons = _count("server.cache.poison_detected")
        second = client.run(req)
        assert _count("server.cache.poison_detected") == poisons + 1
        assert second.get("cached") is not True, (
            "poisoned entry must not be served as a cache hit"
        )
        assert second["result"]["sha256"] == first["result"]["sha256"]
        assert second["result"]["sha256"] == _direct_sha(4)
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# queue stall / slow client: delayed but correct
# ---------------------------------------------------------------------------

def test_queue_stall_is_clamped_and_job_completes():
    plan = FaultPlan.single("server_queue", "slow", seed=SEED,
                            index=0, delay=30.0)
    config = ServerConfig(workers=1, max_stall_s=0.2)
    server, handle, client = _serve(plan, config)
    try:
        resp = client.run({"kind": "assemble", "mesh": MESH,
                           "velocity_seed": 5}, timeout=30)
        assert resp["result"]["sha256"] == _direct_sha(5)
        assert plan.events[0]["kind"] == "slow"
    finally:
        handle.stop()


def test_slow_client_write_is_clamped_and_response_intact():
    plan = FaultPlan.single("server_client", "slow", seed=SEED,
                            index=0, delay=30.0)
    config = ServerConfig(workers=1)
    server, handle, client = _serve(plan, config)
    try:
        resp = client.run({"kind": "assemble", "mesh": MESH,
                           "velocity_seed": 6}, timeout=30)
        assert resp["result"]["sha256"] == _direct_sha(6)
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# executor faults: crash -> typed internal; server stays up
# ---------------------------------------------------------------------------

def test_exec_crash_is_typed_internal_and_server_stays_available():
    plan = FaultPlan.single("server_exec", "crash", seed=SEED, index=0)
    server, handle, client = _serve(plan)
    try:
        with pytest.raises(ProtocolError) as err:
            client.run({"kind": "assemble", "mesh": MESH,
                        "velocity_seed": 7})
        assert err.value.code == "internal"
        # a failed job never lands in the result cache
        resp = client.run({"kind": "assemble", "mesh": MESH,
                           "velocity_seed": 7})
        assert resp.get("cached") is not True
        assert resp["result"]["sha256"] == _direct_sha(7)
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# in-server degradation: assembler fault -> breaker rung below, job OK
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["assemble", "batch"])
def test_assembler_fault_degrades_mode_and_still_serves(kind):
    """A NaN from the codegen rung is recovered once, by the server's mode
    ladder: the job is served by a lower rung and says it degraded."""
    plan = FaultPlan.single("assembler", "nan", seed=SEED, index=0)
    server, handle, client = _serve(plan)
    forcings = (0.1, 0.2, 0.3) if kind == "batch" else None
    req = {"kind": kind, "mesh": MESH, "mode": "codegen", "velocity_seed": 8}
    if forcings:
        req["scenarios"] = [{"body_force": [0.0, 0.0, f]} for f in forcings]
    try:
        degradations = _count("resilience.assembler_degradations")
        resp = client.run(req)
        assert resp["result"]["degraded"] is True
        assert resp["result"]["mode"] != "codegen"
        assert _count("resilience.assembler_degradations") == degradations + 1
        # the degraded rung still produces the exact reference numbers
        assert resp["result"]["sha256"] == _direct_sha(8, forcings)
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# determinism: same seed, same garbled byte
# ---------------------------------------------------------------------------

def test_fault_seed_reproduces_identical_corruption():
    payload = b'{"kind": "assemble", "mesh": {"nx": 2}}'
    runs = []
    for _ in range(2):
        plan = FaultPlan.single("server_request", "corrupt", seed=SEED)
        garbled, fired = plan.corrupt_bytes("server_request", payload)
        assert fired
        runs.append((garbled, plan.events[0]["offset"],
                     plan.events[0]["mask"]))
    assert runs[0] == runs[1]
    other = FaultPlan.single("server_request", "corrupt", seed=SEED + 1)
    garbled, fired = other.corrupt_bytes("server_request", payload)
    assert fired
    assert garbled != runs[0][0]
