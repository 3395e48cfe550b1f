"""Campaign-server integration tests: service boundary vs direct library.

The core guarantee under test: a healthy request served over the socket
is **bitwise identical** to calling the library directly, and every
availability feature (admission, quotas, deadlines, breakers, caches,
coalescing, drain) is observable through typed codes and ``server.*``
metrics.
"""

import hashlib
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import get_registry
from repro.server import (
    AdmissionController,
    CampaignClient,
    CampaignServer,
    CircuitBreaker,
    ProtocolError,
    ServerConfig,
)
from repro.server.breaker import MODE_LADDER


def _count(name):
    snap = get_registry().snapshot().get(name)
    return 0 if snap is None else snap["value"]


MESH = {"nx": 2, "ny": 2, "nz": 2}


def _process_state(pid):
    """The kernel's one-letter state of ``pid`` (``Z``: exited, not yet
    reaped by its new parent), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


def _serve(config=None, fault_plan=None):
    server = CampaignServer(config or ServerConfig(workers=1),
                            fault_plan=fault_plan)
    handle = server.start_in_thread()
    return server, handle, CampaignClient(port=handle.port, timeout=60)


# ---------------------------------------------------------------------------
# unit: admission
# ---------------------------------------------------------------------------

def test_admission_quota_and_shed_codes():
    adm = AdmissionController(max_queue_depth=2, max_per_tenant=1)
    adm.admit("a")
    with pytest.raises(ProtocolError) as err:
        adm.admit("a")
    assert err.value.code == "quota_exceeded"
    assert err.value.retry_after is not None
    adm.admit("b")  # different tenant still fits
    with pytest.raises(ProtocolError) as err:
        adm.admit("c")
    assert err.value.code == "shed"
    adm.release("a")
    adm.admit("c")  # freed slot readmits
    adm.start_draining()
    with pytest.raises(ProtocolError) as err:
        adm.admit("d")
    assert err.value.code == "draining"


def test_admission_retry_after_tracks_load():
    adm = AdmissionController(max_queue_depth=8, max_per_tenant=8, workers=1)
    empty = adm.retry_after()
    for t in "abc":
        adm.admit(t)
    assert adm.retry_after() > empty
    adm.record_service_time(2.0)
    assert adm.retry_after() > 1.0


# ---------------------------------------------------------------------------
# unit: circuit breaker
# ---------------------------------------------------------------------------

def test_breaker_trip_reroute_and_reset():
    clock = [0.0]
    br = CircuitBreaker(failure_threshold=2, reset_timeout_s=10.0,
                        clock=lambda: clock[0])
    key = ("RSP", "codegen")
    trips = _count("resilience.breaker_trips")
    br.record_failure(key)
    assert br.allow(key)  # one failure below threshold
    br.record_failure(key)
    assert _count("resilience.breaker_trips") == trips + 1
    assert not br.allow(key)
    # routing skips the open rung but keeps the rest of the ladder
    assert br.route("RSP", "codegen") == list(MODE_LADDER[1:])
    # reset timeout -> half-open probe allowed; success closes
    clock[0] = 11.0
    assert br.state(key) == CircuitBreaker.HALF_OPEN
    assert br.allow(key)
    resets = _count("resilience.breaker_resets")
    br.record_success(key)
    assert br.state(key) == CircuitBreaker.CLOSED
    assert _count("resilience.breaker_resets") == resets + 1


def test_breaker_failed_probe_reopens():
    clock = [0.0]
    br = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                        clock=lambda: clock[0])
    br.record_failure("k")
    clock[0] = 6.0
    assert br.state("k") == CircuitBreaker.HALF_OPEN
    br.record_failure("k")  # probe fails
    assert br.state("k") == CircuitBreaker.OPEN
    clock[0] = 10.9  # fresh timeout from the probe failure
    assert br.state("k") == CircuitBreaker.OPEN


# ---------------------------------------------------------------------------
# integration: happy path, bitwise fidelity, caching
# ---------------------------------------------------------------------------

def test_served_assembly_bitwise_matches_direct_library_call():
    from repro.core.unified import UnifiedAssembler
    from repro.fem.meshgen import box_tet_mesh
    from repro.physics.momentum import AssemblyParams

    server, handle, client = _serve()
    try:
        resp = client.run({
            "kind": "assemble", "mesh": MESH, "variant": "RSP",
            "mode": "compiled", "velocity_seed": 3, "return_field": True,
        })
        result = resp["result"]
        mesh = box_tet_mesh(2, 2, 2)
        velocity = 0.1 * np.random.default_rng(3).standard_normal(
            (mesh.nnode, 3)
        )
        direct = UnifiedAssembler(
            mesh, AssemblyParams(), mode="compiled"
        ).assemble("RSP", velocity)
        direct = np.ascontiguousarray(direct)
        assert result["sha256"] == hashlib.sha256(direct.tobytes()).hexdigest()
        # return_field floats survive the JSON wire bitwise
        assert np.array_equal(np.array(result["field"]), direct)
    finally:
        handle.stop()


def test_second_identical_campaign_is_cached_with_zero_replans():
    server, handle, client = _serve()
    try:
        req = {
            "kind": "campaign", "mesh": MESH, "steps": 2, "dt": 5e-3,
            "scenarios": [{"body_force": [0.0, 0.0, 0.01]},
                          {"body_force": [0.0, 0.0, 0.02]}],
            "mode": "compiled",
        }
        first = client.run(req, timeout=120)
        builds = _count("plan.builds")
        hits = _count("server.cache.result_hits")
        second = client.run(req, timeout=120)
        assert second["result"] == first["result"]
        assert _count("plan.builds") == builds, "cached replay must not re-plan"
        assert _count("server.cache.result_hits") == hits + 1
    finally:
        handle.stop()


def test_warm_mesh_different_physics_reuses_plan():
    """Different velocity_seed misses the result cache but the mesh --
    and its plan/tape/codegen caches -- stay warm: zero plan.builds."""
    server, handle, client = _serve()
    try:
        base = {"kind": "assemble", "mesh": MESH, "mode": "compiled"}
        client.run({**base, "velocity_seed": 0})
        builds = _count("plan.builds")
        misses = _count("server.cache.result_misses")
        client.run({**base, "velocity_seed": 1})
        assert _count("plan.builds") == builds
        assert _count("server.cache.result_misses") > misses
        assert len(server.mesh_cache) == 1
    finally:
        handle.stop()


def _concurrent_campaigns_match_direct(mode):
    """Two concurrent campaigns on one mesh both match the direct library,
    and a campaign on the warm mesh builds no hierarchy.  The jobs differ
    in velocity *and* forcing values, so in the compiled modes they share
    one batched kernel and nothing else."""
    from repro.fem.meshgen import box_tet_mesh
    from repro.physics.fractional_step import BatchCampaign
    from repro.physics.momentum import AssemblyParams

    mesh_spec = {"nx": 5, "ny": 5, "nz": 5}  # 216 nodes: a multi-level hierarchy

    def scenarios(seed):
        return [{"body_force": (0.0, 0.0, 1e-3 * seed * k)} for k in (1, 2)]

    def request(seed):
        return {"kind": "campaign", "mesh": mesh_spec, "steps": 2, "dt": 1e-3,
                "scenarios": scenarios(seed), "mode": mode,
                "velocity_seed": seed}

    def direct_sha(seed):
        mesh = box_tet_mesh(5, 5, 5)
        campaign = BatchCampaign(
            mesh, [AssemblyParams(**s) for s in scenarios(seed)], mode=mode
        )
        campaign.set_velocities(
            0.1 * np.random.default_rng(seed).standard_normal((mesh.nnode, 3))
        )
        campaign.run(2, dt=1e-3)
        final = np.ascontiguousarray(campaign.velocities())
        return hashlib.sha256(final.tobytes()).hexdigest()

    server, handle, client = _serve(ServerConfig(workers=2))
    try:
        cold = _count("pressure.hierarchy_builds")
        jobs = [client.submit(request(seed))["job_id"] for seed in (21, 22)]
        for job_id, seed in zip(jobs, (21, 22)):
            done = client.wait(job_id, timeout=120)
            assert done["state"] == "done"
            assert done["result"]["sha256"] == direct_sha(seed)
            assert not done["result"].get("detached")
        builds = _count("pressure.hierarchy_builds")
        # the racing first builds may both run (wasted, not wrong work);
        # direct_sha built two more on its own cold meshes
        assert cold + 3 <= builds <= cold + 4
        third = client.run(request(23), timeout=120)
        assert _count("pressure.hierarchy_builds") == builds
        assert third["result"]["sha256"] == direct_sha(23)
    finally:
        handle.stop()


def test_campaigns_share_one_pressure_hierarchy_per_warm_mesh():
    """The shared hierarchy is immutable and V-cycle temporaries belong to
    each solve."""
    _concurrent_campaigns_match_direct("interpreted")


@pytest.mark.parametrize("mode", ["compiled", "codegen", "native"])
def test_concurrent_campaigns_serialize_on_the_shared_kernel(mode, request):
    """A plan-cached tape / generated kernel replays in buffers it owns;
    its lock makes two jobs on one mesh take turns instead of racing.
    ``native`` is ``codegen`` with the kernels' C form built beforehand:
    every bind is a cache hit, adopted on its first sweep, and the jobs
    share the accumulator their fused sweeps scatter into."""
    if mode != "native":
        return _concurrent_campaigns_match_direct(mode)
    request.getfixturevalue("cc")
    from repro.fem.meshgen import box_tet_mesh
    from repro.physics.fractional_step import BatchCampaign
    from repro.physics.momentum import AssemblyParams

    warm = BatchCampaign(
        box_tet_mesh(5, 5, 5),
        [AssemblyParams(body_force=(0.0, 0.0, 1e-3 * k)) for k in (1, 2)],
        mode="codegen",
    )
    warm.run(1, dt=1e-3)
    kernels = list(warm.assembler.plan.kernels["codegen"].values())
    assert kernels and all(kern.build_native(wait=True) for kern in kernels)
    before = _count("codegen.native_adopted"), _count("scatter.fused_sweeps")
    _concurrent_campaigns_match_direct("codegen")
    assert _count("codegen.native_adopted") > before[0]
    assert _count("scatter.fused_sweeps") > before[1]


def test_identical_inflight_submissions_coalesce():
    server, handle, client = _serve()
    try:
        req = {"kind": "campaign", "mesh": MESH, "steps": 60, "dt": 5e-3,
               "mode": "compiled"}
        first = client.submit(req)
        # submit the identical request while the first is queued/running
        second = client.submit(req)
        assert second.get("coalesced") is True
        assert second["job_id"] == first["job_id"]
        done = client.wait(first["job_id"], timeout=120)
        assert done["state"] == "done"
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# integration: typed rejections over the wire
# ---------------------------------------------------------------------------

def test_unknown_endpoint_and_job_are_typed_not_found():
    server, handle, client = _serve()
    try:
        for path in ("/nope", "/jobs/job-999999"):
            with pytest.raises(ProtocolError) as err:
                client._request("GET", path)
            assert err.value.code == "not_found"
    finally:
        handle.stop()


def test_non_finite_numbers_never_reach_the_breakers():
    """A ``NaN`` / ``Infinity`` in any numeric field is the client's own
    ``malformed``: with a one-failure breaker threshold, none of them
    records a rung failure, so the next healthy request is served on the
    rung it asked for."""
    server, handle, client = _serve(ServerConfig(workers=1, breaker_threshold=1))
    try:
        before = _count("server.rejections.malformed")
        scenario = {"density": 1.0, "viscosity": 1e-3, "body_force": [0.0, 0.0, 0.0]}
        bad = [{"dt": float("nan")}, {"dt": float("inf")}, {"deadline_ms": float("inf")},
               {"mesh": {**MESH, "lengths": [1.0, float("-inf"), 1.0]}},
               {"scenarios": [{**scenario, "viscosity": float("nan")}]},
               {"scenarios": [{**scenario, "body_force": [0.0, float("inf"), 0.0]}]},
               {"scenarios": [{**scenario, "vreman_c": float("nan")}]}]
        for fields in bad:
            with pytest.raises(ProtocolError) as err:
                client.submit({"kind": "campaign", "mesh": MESH, "steps": 1, "dt": 1e-3,
                               "mode": "codegen", **fields})
            assert err.value.code == "malformed"
        assert _count("server.rejections.malformed") == before + len(bad)
        assert server.breaker._states == {} and client.stats()["breakers"] == {}
        done = client.run({"kind": "campaign", "mesh": MESH, "steps": 1, "dt": 1e-3,
                           "mode": "codegen", "velocity_seed": 5})
        assert done["state"] == "done"
        assert all(state == "closed" and failures == 0
                   for state, failures, _ in server.breaker._states.values())
    finally:
        handle.stop()


def test_malformed_submit_counted_and_typed():
    server, handle, client = _serve()
    try:
        before = _count("server.rejections.malformed")
        with pytest.raises(ProtocolError) as err:
            client.submit({"kind": "explode", "mesh": MESH})
        assert err.value.code == "malformed"
        assert _count("server.rejections.malformed") == before + 1
    finally:
        handle.stop()


def test_full_queue_sheds_with_retry_after():
    from repro.resilience.faults import FaultPlan, FaultSpec

    # hold the single slot with an injected slow executor fault
    plan = FaultPlan([FaultSpec(site="server_exec", kind="slow",
                                index=0, delay=10.0)], seed=1)
    config = ServerConfig(workers=1, max_queue_depth=1, max_stall_s=1.0)
    server, handle, client = _serve(config, fault_plan=plan)
    try:
        slow = client.submit({"kind": "assemble", "mesh": MESH,
                              "velocity_seed": 10})
        before = _count("server.rejections.shed")
        with pytest.raises(ProtocolError) as err:
            client.submit({"kind": "assemble", "mesh": MESH,
                           "velocity_seed": 11})
        assert err.value.code == "shed"
        assert err.value.retry_after is not None and err.value.retry_after >= 0
        assert _count("server.rejections.shed") == before + 1
        done = client.wait(slow["job_id"], timeout=60)
        assert done["state"] == "done"  # the held job still completes
    finally:
        handle.stop()


def test_deadline_exceeded_is_typed_and_cancels_cleanly():
    server, handle, client = _serve()
    try:
        sub = client.submit({
            "kind": "campaign", "mesh": MESH, "steps": 1000, "dt": 5e-3,
            "mode": "compiled", "deadline_ms": 400.0, "velocity_seed": 42,
        })
        with pytest.raises(ProtocolError) as err:  # delivered to the held connection
            client.wait(sub["job_id"], timeout=120, poll_s=5)
        assert err.value.code == "deadline_exceeded"
        status = client.status(sub["job_id"])
        assert status["state"] == "cancelled"
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# integration: drain
# ---------------------------------------------------------------------------

def test_drain_checkpoints_inflight_campaign_and_rejects_new(
    tmp_path, monkeypatch
):
    import os

    from repro.core import native

    # a compiler that never finishes: the child a generated kernel's
    # background build would leave behind if the drain did not reap it
    slow_cc = tmp_path / "slow-cc"
    slow_cc.write_text(f"#!/bin/sh\nsleep 60 &\necho $! > {tmp_path}/cc1.pid\nwait\n")
    slow_cc.chmod(0o755)
    monkeypatch.setenv("CC", str(slow_cc))
    config = ServerConfig(workers=1, checkpoint_dir=str(tmp_path))
    server, handle, client = _serve(config)
    try:
        build = native.build("/* pending at drain */ void kernel(void) {}\n")
        assert build is not None and build.poll() is None
        sub = client.submit({
            "kind": "campaign", "mesh": MESH, "steps": 900, "dt": 5e-3,
            "mode": "compiled", "velocity_seed": 7,
        })
        # wait until it is actually running so the drain catches it mid-flight
        deadline = time.monotonic() + 30
        while client.status(sub["job_id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        summary = client.drain()
        assert sub["job_id"] in summary["cancelled_running"]
        status = client.status(sub["job_id"])
        assert status["state"] == "checkpointed"
        assert status["checkpoints"], "drained campaign must checkpoint"
        for path in status["checkpoints"]:
            assert os.path.exists(path)
        # draining server refuses new work with a typed code
        with pytest.raises(ProtocolError) as err:
            client.submit({"kind": "assemble", "mesh": MESH,
                           "velocity_seed": 123})
        assert err.value.code == "draining"
        # no orphan compiler: the driver and the child it forked are gone
        assert build.poll() is not None
        cc1 = int((tmp_path / "cc1.pid").read_text())
        deadline = time.monotonic() + 10
        while _process_state(cc1) not in (None, "Z"):
            assert time.monotonic() < deadline, "the compiler's child survived"
            time.sleep(0.01)
    finally:
        handle.stop()


def test_drained_checkpoint_is_restartable(tmp_path):
    from repro.fem.meshgen import box_tet_mesh
    from repro.physics.fractional_step import FractionalStepSolver
    from repro.physics.momentum import AssemblyParams

    config = ServerConfig(workers=1, checkpoint_dir=str(tmp_path))
    server, handle, client = _serve(config)
    try:
        steps_before = _count("fstep.batch_steps")
        sub = client.submit({
            "kind": "campaign", "mesh": MESH, "steps": 900, "dt": 5e-3,
            "mode": "compiled", "velocity_seed": 8,
        })
        # a drain that lands while the job is still building its campaign
        # checkpoints at step 0, legitimately: wait for a finished step
        deadline = time.monotonic() + 30
        while _count("fstep.batch_steps") == steps_before:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.drain()
        status = client.status(sub["job_id"])
        assert status["state"] == "checkpointed"
        solver = FractionalStepSolver(box_tet_mesh(2, 2, 2), AssemblyParams())
        import os

        solver.restart_latest(os.path.dirname(status["checkpoints"][0]))
        assert solver.step_count >= 1
        assert np.isfinite(solver.velocity).all()
    finally:
        handle.stop()


def test_a_drain_before_the_first_step_checkpoints_step_zero(tmp_path):
    """A job is ``running`` before its executor reaches the campaign; a
    drain in that window (held open by a slow ``server_exec`` fault) still
    checkpoints the campaign, at its step-0 state."""
    import os

    from repro.resilience.checkpoint import load_checkpoint
    from repro.resilience.faults import FaultPlan, FaultSpec

    plan = FaultPlan([FaultSpec(site="server_exec", kind="slow", index=0,
                                delay=2.0)], seed=1)
    config = ServerConfig(workers=1, checkpoint_dir=str(tmp_path),
                          max_stall_s=2.0)
    server, handle, client = _serve(config, fault_plan=plan)
    try:
        sub = client.submit({
            "kind": "campaign", "mesh": MESH, "steps": 900, "dt": 5e-3,
            "mode": "compiled", "velocity_seed": 9,
        })
        deadline = time.monotonic() + 30
        while client.status(sub["job_id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        summary = client.drain()
        assert sub["job_id"] in summary["cancelled_running"]
        status = client.status(sub["job_id"])
        assert status["state"] == "checkpointed"
        assert status["checkpoints"]
        for path in status["checkpoints"]:
            assert os.path.exists(path)
            assert load_checkpoint(path).step == 0
    finally:
        handle.stop()


def test_stop_leaves_no_server_threads_or_tasks():
    server, handle, client = _serve()
    try:
        client.run({"kind": "assemble", "mesh": MESH, "velocity_seed": 55})
    finally:
        handle.stop()
    assert not handle.thread.is_alive()
    assert server._worker_tasks == []
    assert server._executor is None
    leftovers = [
        t.name for t in threading.enumerate()
        if t.name.startswith(("campaign-server", "campaign-exec"))
        and t.is_alive()
    ]
    assert leftovers == []
    # double-stop is a no-op
    handle.stop()


# ---------------------------------------------------------------------------
# integration: completion is pushed to a held connection, not polled
# ---------------------------------------------------------------------------

def _slow_jobs(seconds, metrics):
    """A server whose every job sleeps ``seconds`` in the executor, its
    client, and a reader of ``metrics`` (the registry the test installed)."""
    from repro.resilience.faults import FaultPlan, FaultSpec

    plan = FaultPlan([FaultSpec(site="server_exec", kind="slow", index=i, delay=seconds)
                      for i in range(8)], seed=1)
    handle = CampaignServer(
        ServerConfig(workers=1, max_stall_s=seconds), fault_plan=plan
    ).start_in_thread()
    return handle, CampaignClient(port=handle.port, timeout=60), (
        lambda name: metrics.snapshot().get(name, {"value": 0})
    )


def _assemble(seed):
    return {"kind": "assemble", "mesh": MESH, "velocity_seed": seed}


def _raw(port, payload):
    """One exchange on a bare socket: send, half-close, read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=20) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        raw = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


def _in_thread(fn, *args, **kwargs):
    """Run ``fn`` on a thread; ``join()`` returns its result or exception."""
    box = []

    def target():
        try:
            box.append(fn(*args, **kwargs))
        except Exception as exc:
            box.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()

    def join():
        thread.join(timeout=60)
        assert not thread.is_alive()
        return box[0]

    return join


def test_a_finished_job_is_pushed_to_the_held_connection_in_one_round_trip(telemetry):
    """``poll_s`` is the longest one request is held, not a sleep: a 50 ms
    job under ``poll_s=5`` is one request and well under a second; so is a
    cache hit, and a coalesced follower rides the leader's job."""
    handle, client, metric = _slow_jobs(0.05, telemetry[1])
    try:
        t0 = time.monotonic()
        first = client.run(_assemble(1), poll_s=5)
        assert time.monotonic() - t0 < 1.0
        assert first["state"] == "done" and "cached" not in first
        assert metric("server.requests")["value"] == 1
        hit = client.run(_assemble(1), poll_s=5)
        assert hit["cached"] is True and hit["result"] == first["result"]
        assert metric("server.requests")["value"] == 2
        leader = client.submit(_assemble(2))
        follower = client.run(_assemble(2), poll_s=5)
        assert follower["coalesced"] is True and follower["job_id"] == leader["job_id"]
        assert follower["result"] == client.result(leader["job_id"])["result"]
        assert metric("server.holds_expired")["value"] == 0
        held = metric("server.hold_seconds")
        assert held["count"] == 2 and 0.03 < held["min"] <= held["max"] < 1.0
    finally:
        handle.stop()


def test_an_expired_hold_is_asked_again_and_client_timeout_still_raises(telemetry):
    handle, client, metric = _slow_jobs(0.2, telemetry[1])
    try:
        slow = client.run(_assemble(3), poll_s=0.001)
        assert metric("server.holds_expired")["value"] >= 2
        assert metric("server.requests")["value"] == metric("server.holds_expired")["value"] + 1
        quick = CampaignServer(ServerConfig(workers=1)).start_in_thread()
        try:  # the same bytes as a server that never made anyone wait
            direct = CampaignClient(port=quick.port).run(_assemble(3), poll_s=5)
        finally:
            quick.stop()
        assert slow["result"] == direct["result"]
        with pytest.raises(TimeoutError):
            client.run(_assemble(4), timeout=0.05, poll_s=5)
    finally:
        handle.stop()


def test_drain_answers_held_connections_with_draining_or_checkpoints(tmp_path):
    server, handle, client = _serve(ServerConfig(workers=1, checkpoint_dir=str(tmp_path)))
    try:
        steps = _count("fstep.batch_steps")
        running = client.submit({"kind": "campaign", "mesh": MESH, "steps": 900,
                                 "dt": 5e-3, "mode": "compiled", "velocity_seed": 9})
        queued = client.submit(_assemble(5))
        deadline = time.monotonic() + 30
        while _count("fstep.batch_steps") == steps:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        held_running = _in_thread(
            _raw, handle.port,
            f"GET /jobs/{running['job_id']}/result?wait=9 HTTP/1.1\r\n\r\n".encode())
        held_queued = _in_thread(client.wait, queued["job_id"], poll_s=5)
        while len(server._handlers) < 2:  # both connections are being held
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.drain()
        refused = held_queued()
        assert isinstance(refused, ProtocolError) and refused.code == "draining"
        status, body = held_running()
        assert status == 500 and body["state"] == "checkpointed" and body["checkpoints"]
    finally:
        handle.stop()


def test_job_table_is_bounded_and_stats_count_without_walking_it():
    bound = 8
    server, handle, client = _serve(ServerConfig(workers=1, result_cache_entries=bound))
    try:
        ids = [client.run(_assemble(1000 + i), poll_s=5)["job_id"] for i in range(500)]
        assert len(server.jobs) <= bound
        assert client.result(ids[-1])["state"] == "done"
        with pytest.raises(ProtocolError) as err:
            client.result(ids[0])
        assert err.value.code == "not_found"
        assert client.stats()["jobs"] == {"done": 500}
    finally:
        handle.stop()


def test_half_open_connections_are_joined_quietly_at_shutdown(caplog):
    """A socket that never sends its request used to leave a handler that
    the closing loop cancelled: one logged traceback each."""
    server, handle, client = _serve()
    accepted = _count("server.requests")
    idle = [socket.create_connection(("127.0.0.1", handle.port)) for _ in range(10)]
    for _ in range(50):
        socket.create_connection(("127.0.0.1", handle.port)).close()
    deadline = time.monotonic() + 10
    while _count("server.requests") < accepted + 60 and time.monotonic() < deadline:
        time.sleep(0.01)
    t0 = time.monotonic()
    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        handle.stop()
    for sock in idle:
        sock.close()
    assert time.monotonic() - t0 < 5.0  # nobody sat out the 10 s read timeout
    assert server._handlers == {}
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


# ---------------------------------------------------------------------------
# integration: whatever arrives on the socket, a typed answer and no hung handler
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def finished_job():
    """A live server holding one finished job: ``(port, job_id)``."""
    server, handle, client = _serve()
    try:
        yield handle.port, client.run(_assemble(77))["job_id"]
    finally:
        handle.stop()


_TARGETS = st.one_of(
    st.sampled_from(["/submit", "/jobs/{id}/result", "/jobs/{id}", "/jobs/job-999999/result",
                     "/health", "/", "/jobs/", "*"]),
    st.text(alphabet="/?=&%jobsresult-0123456789", max_size=24),
)
_QUERIES = st.one_of(
    st.none(),
    st.sampled_from(["", "wait=", "wait=nan", "wait=inf", "wait=-1", "wait=1e309", "wait=0",
                     "wait=0.5", "wait=1e300", "wait=1&wait=2", "hold=1", "wait=1&x=2"]),
    st.text(alphabet="wait=&.e-+0123456789nanif", max_size=16),
)


@settings(max_examples=120, deadline=None)
@given(
    method=st.sampled_from(["GET", "POST", "get", "PUT", ""]),
    target=_TARGETS,
    query=_QUERIES,
    version=st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", ""]),
    body=st.sampled_from([b"", b"{}", b"[1, 2", b"\xff\xfe"]),
    cut=st.integers(0, 60) | st.none(),
)
def test_any_request_line_gets_a_typed_answer_at_once(
    finished_job, method, target, query, version, body, cut
):
    """Request line, ``?wait=`` and truncated heads, over the socket: a
    success or a typed ``malformed`` / ``not_found``, never anything else and
    never a handler that hangs (the only job here is finished, so even a
    well-formed hold answers at once)."""
    port, job_id = finished_job
    line = f"{method} {target.format(id=job_id) if '{id}' in target else target}"
    line += "" if query is None else f"?{query}"
    head = f"{line} {version}\r\nContent-Length: {len(body)}\r\n\r\n".encode("latin-1", "replace")
    payload = head + body
    t0 = time.monotonic()
    status, answer = _raw(port, payload if cut is None else payload[:cut])
    assert time.monotonic() - t0 < 5.0
    assert status in (200, 202, 400, 404)
    if status >= 400:
        assert answer["error"] in ("malformed", "not_found") and answer["message"]
    elif "/jobs/" in line:
        assert answer["job_id"] == job_id and answer["state"] == "done"


# ---------------------------------------------------------------------------
# integration: health/stats
# ---------------------------------------------------------------------------

def test_health_and_stats_endpoints():
    server, handle, client = _serve()
    try:
        health = client.health()
        assert health["status"] == "ok"
        client.run({"kind": "assemble", "mesh": MESH, "velocity_seed": 77})
        stats = client.stats()
        assert stats["jobs"].get("done", 0) >= 1
        assert "server.jobs_completed" in stats["metrics"]
        assert stats["mesh_cache_entries"] >= 1
    finally:
        handle.stop()
    assert client.drain  # handle closed; client object still valid
