#!/usr/bin/env python3
"""Talk to the campaign server: submit and hold, verify, drain.

Two ways to run it:

* against a server you started yourself::

      PYTHONPATH=src python -m repro.server --port 8750 &
      PYTHONPATH=src python examples/campaign_client.py --port 8750

* self-contained (``--spawn``): the script boots ``python -m repro.server``
  on an ephemeral port as a subprocess, runs the whole smoke sequence --
  health, an assembly request **bitwise-verified** against the direct
  library call, a small LES campaign, a second identical submit that must
  come back ``cached`` without re-planning, a campaign held with ``poll_s=5``
  that must be one request and under 2 s, ``/stats`` -- then sends
  SIGTERM and waits for the graceful drain.  The CI ``server`` job runs
  exactly this::

      PYTHONPATH=src python examples/campaign_client.py --spawn \
          --stats-out SERVER_stats.json
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.server import CampaignClient  # noqa: E402

MESH = {"nx": 4, "ny": 4, "nz": 4}


def direct_sha256(velocity_seed: int) -> str:
    """The library-side answer the served one must match bitwise."""
    from repro.core import UnifiedAssembler
    from repro.fem import box_tet_mesh
    from repro.physics import AssemblyParams

    mesh = box_tet_mesh(MESH["nx"], MESH["ny"], MESH["nz"])
    velocity = 0.1 * np.random.default_rng(velocity_seed).standard_normal(
        (mesh.nnode, 3)
    )
    rhs = UnifiedAssembler(mesh, AssemblyParams(), mode="compiled").assemble(
        "RSP", velocity
    )
    return hashlib.sha256(np.ascontiguousarray(rhs).tobytes()).hexdigest()


def smoke(client: CampaignClient, stats_out=None) -> None:
    health = client.health()
    print(f"health: {health}")
    assert health["status"] == "ok"

    # 1. one assembly, checked bitwise against the in-process library
    req = {"kind": "assemble", "mesh": MESH, "variant": "RSP",
           "mode": "compiled", "velocity_seed": 3}
    resp = client.run(req)
    served, direct = resp["result"]["sha256"], direct_sha256(3)
    print(f"assemble: served sha256 {served[:16]}… "
          f"{'==' if served == direct else '!='} direct library")
    assert served == direct, "served assembly diverged from the library"

    # 2. a small two-scenario LES campaign (explicit submit, then hold on the
    #    job: the server answers the moment it is finished)
    campaign = {
        "kind": "campaign", "mesh": MESH, "steps": 5, "dt": 2e-3,
        "mode": "compiled",
        "scenarios": [{"body_force": [0.0, 0.0, 0.01]},
                      {"body_force": [0.0, 0.0, 0.02]}],
    }
    sub = client.submit(campaign)
    print(f"campaign submitted: {sub['job_id']} ({sub['state']})")
    result = client.wait(sub["job_id"], timeout=300)
    energies = result["result"]["kinetic_energy"]
    print(f"campaign done: kinetic energy per scenario = "
          f"{[f'{e:.3e}' for e in energies]}")

    # 3. the identical campaign again: a content-hash cache hit
    again = client.run(campaign)
    assert again.get("cached") is True, "identical campaign must be cached"
    assert again["result"] == result["result"]
    print("resubmit: served from the result cache, bit-identical")

    # 4. completion is pushed, not polled: under poll_s=5 a cold 6^3 campaign
    #    is one request and returns when it ends, not 5 s later
    def requests():  # counts this /stats request too
        return client.stats()["metrics"]["server.requests"]["value"]

    before, t0 = requests(), time.monotonic()
    client.run({**campaign, "mesh": {"nx": 6, "ny": 6, "nz": 6}, "steps": 2}, poll_s=5)
    seconds, asked = time.monotonic() - t0, requests() - before - 1
    print(f"held campaign: {seconds:.2f} s over {asked:g} request(s)")
    assert seconds < 2.0 and asked == 1, "completion must be pushed to the held request"

    stats = client.stats()
    print(f"stats: jobs={stats['jobs']} "
          f"mesh_cache={stats['mesh_cache_entries']} "
          f"result_cache={stats['result_cache_entries']}")
    if stats_out:
        with open(stats_out, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
        print(f"stats written to {stats_out}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8750)
    ap.add_argument("--spawn", action="store_true",
                    help="boot python -m repro.server on an ephemeral port, "
                         "run the smoke sequence, then drain it with SIGTERM")
    ap.add_argument("--stats-out", default=None,
                    help="write the final /stats snapshot to this JSON file")
    args = ap.parse_args()

    if not args.spawn:
        smoke(CampaignClient(host=args.host, port=args.port, timeout=300),
              stats_out=args.stats_out)
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0"],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        banner = json.loads(proc.stdout.readline())
        host, port = banner["listening"].rsplit(":", 1)
        print(f"spawned server on {banner['listening']}")
        smoke(CampaignClient(host=host, port=int(port), timeout=300),
              stats_out=args.stats_out)
        print("sending SIGTERM for the graceful drain…")
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        for line in proc.stdout:
            if json.loads(line).get("drained"):
                print("server drained cleanly")
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server did not drain in time")
        return proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


if __name__ == "__main__":
    raise SystemExit(main())
