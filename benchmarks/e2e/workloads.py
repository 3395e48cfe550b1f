"""The six workloads: inputs from a seed, one unit of work, gates, layers.

Every workload follows one protocol, driven by ``run.py``:

``setup(tr)``
    the cold path through the first unit of work (imports are already
    paid by importing this module);
``prepare(i, traced)`` / ``run_unit(i, tr)`` / ``settle(i, out, tr)``
    one unit of work: only ``run_unit`` is timed, ``settle`` says
    whether the unit's output is good;
``gates(full)``
    correctness checks after the timed region, ``(name, ok, detail)``
    each; ``full`` adds the ones too slow for every run (see README);
``layer_metrics(tr, untraced_p50_s)``
    the per-layer numbers of a traced run.

The program under test is only reached through its public entry points;
nothing under ``src/`` knows about this file.
"""

import hashlib
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.core import OptimizationStudy, ScenarioBatch, UnifiedAssembler  # noqa: E402
from repro.core.microbench import run_listing3  # noqa: E402
from repro.fem import box_tet_mesh, get_plan  # noqa: E402
from repro.machine.roofline import render_ascii  # noqa: E402
from repro.obs import get_registry  # noqa: E402
from repro.physics import VREMAN_C, AssemblyParams, assemble_momentum_rhs  # noqa: E402
from repro.physics.fractional_step import BatchCampaign, FractionalStepSolver  # noqa: E402
from repro.physics.pressure import PressureSolver  # noqa: E402
from repro.server import CampaignClient, CampaignRequest, ScenarioSpec  # noqa: E402

import ceilings  # noqa: E402
from ceilings import best_of  # noqa: E402

PARAMS = AssemblyParams()
VELOCITY_SCALE = 0.1  # the amplitude the server draws its fields with


def velocity_field(seed, nnode):
    """The field the server builds for ``velocity_seed=seed``."""
    return VELOCITY_SCALE * np.random.default_rng(seed).standard_normal((nnode, 3))


def sha256(field):
    return hashlib.sha256(np.ascontiguousarray(field, dtype=np.float64).tobytes()).hexdigest()


def median_ms(seconds):
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def counter(name):
    """Current value of one of the program's own counters (0 if unset)."""
    entry = get_registry().snapshot().get(name)
    return 0.0 if entry is None else float(entry["value"])


class Workload:
    name = ""
    unit = ""
    min_units = 2
    smoke_min_units = 2

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke
        self.setup_gates = []   # checks made on the first unit of work

    def setup_seconds(self, spawned_at):
        """Process start to first unit done (wall clock, both ends)."""
        return time.time() - spawned_at

    def warm_up(self):
        """Untimed work between set-up and the timed region."""

    def prepare(self, i, traced):
        pass

    def settle(self, i, out, tr):
        return True

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


# ---------------------------------------------------------------------------
# W1 / W2: one assembly sweep
# ---------------------------------------------------------------------------

class Sweep(Workload):
    unit = "sweep"
    min_units = 10
    smoke_min_units = 4
    FIELDS = 2  # alternate inputs, so a stale result cannot pass

    def __init__(self, seed, smoke, name, n, mode, variant, threads=False):
        super().__init__(seed, smoke)
        self.name = name
        self.n = 4 if smoke else n
        self.mode = mode
        self.variant = variant
        self.threads = threads
        rng = np.random.default_rng(seed)
        nnode = (self.n + 1) ** 3
        self.fields = [
            VELOCITY_SCALE * rng.standard_normal((nnode, 3))
            for _ in range(self.FIELDS)
        ]
        self.expected = [None] * self.FIELDS
        self.profiled = None

    def setup(self, tr):
        with tr.span("box_tet_mesh", "fem"):
            self.mesh = box_tet_mesh(self.n, self.n, self.n)
        with tr.span("get_plan+UnifiedAssembler", "fem"):
            self.plan = get_plan(self.mesh)
            self.asm = UnifiedAssembler(self.mesh, PARAMS, mode=self.mode)
        with tr.span("first_assemble", "core"):
            first = self.asm.assemble(self.variant, self.fields[0])
        self.setup_gates.append(("first_sweep_finite", bool(np.isfinite(first).all()), ""))
        self.expected[0] = first
        self.plan_builds_after_setup = counter("plan.builds")

    def _phase_seconds(self):
        profile = next(iter(self.profiled.profiler.profiles.values()))
        return {p: row["seconds"] for p, row in profile.phases().items()}

    def prepare(self, i, traced):
        if not traced:
            return
        if self.profiled is None:
            self.profiled = UnifiedAssembler(
                self.mesh, PARAMS, mode=self.mode, profile=True
            )
            self.profiled.assemble(self.variant, self.fields[0])
        self._phases_before = self._phase_seconds()

    def run_unit(self, i, tr):
        field = self.fields[i % self.FIELDS]
        if not tr.enabled:
            return self.asm.assemble(self.variant, field), None
        with tr.span("assemble", "core") as span:
            out = self.profiled.assemble(self.variant, field)
        return out, span

    def settle(self, i, out, tr):
        rhs, span = out
        if span is not None:
            for phase, seconds in self._phase_seconds().items():
                layer = "fem" if phase in ("gather", "scatter", "flush") else "core"
                tr.add(span, phase, layer, seconds - self._phases_before.get(phase, 0.0))
        k = i % self.FIELDS
        if self.expected[k] is None:
            self.expected[k] = rhs
            return bool(np.isfinite(rhs).all())
        return np.array_equal(rhs, self.expected[k])

    def gates(self, full):
        out = []
        other = "compiled" if self.mode == "codegen" else "codegen"
        twin = UnifiedAssembler(self.mesh, PARAMS, mode=other)
        for k, field in enumerate(self.fields):
            if self.expected[k] is None:
                self.expected[k] = self.asm.assemble(self.variant, field)
            got = self.expected[k]
            ref = assemble_momentum_rhs(self.mesh, field, PARAMS)
            ok = np.allclose(got, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max())
            out.append((f"reference_allclose[{k}]", bool(ok),
                        f"max abs diff {np.abs(got - ref).max():.3e}"))
            same = np.array_equal(got, twin.assemble(self.variant, field))
            out.append((f"bitwise_vs_{other}[{k}]", bool(same), ""))
        if full:
            vd = self.asm.resolve_vector_dim(self.variant)
            oracle = UnifiedAssembler(
                self.mesh, PARAMS, mode="interpreted", vector_dim=vd
            ).assemble(self.variant, self.fields[0])
            out.append(("bitwise_vs_interpreted[0]",
                        bool(np.array_equal(self.expected[0], oracle)),
                        f"vector_dim {vd}"))
        return out

    def layer_metrics(self, tr, untraced_p50_s):
        nelem = self.mesh.nelem
        profile = next(iter(self.profiled.profiler.profiles.values()))
        sweeps = profile.executions
        phases = profile.phases()

        def ms(*names):
            return sum(phases.get(p, {"seconds": 0.0})["seconds"] for p in names) / sweeps * 1e3

        report = profile.report
        compute_ms = ms("compute", "select", "store")
        bytes_per_sweep = (profile.total_bytes + profile.flush_bytes) / sweeps
        ceil = ceilings.measure((8 << 20) if self.smoke else None)
        achieved = bytes_per_sweep / untraced_p50_s / 1e9
        values = np.ones(self.plan.scatter.nvalues)
        t_scatter = best_of(lambda: self.plan.scatter.scatter(values))
        m = {
            "fem.mesh_build_s": tr.durations("box_tet_mesh")[0],
            "fem.plan_build_s": tr.durations("get_plan+UnifiedAssembler")[0],
            "fem.gather_ms": ms("gather"),
            "fem.scatter_flush_ms": ms("scatter", "flush"),
            "fem.scatter_melem_per_s": nelem / t_scatter / 1e6,
            "fem.plan_builds_steady": counter("plan.builds") - self.plan_builds_after_setup,
            "core.first_sweep_s": tr.durations("first_assemble")[0] - untraced_p50_s,
            "core.tape_ops": report.ops_live,
            "core.buffers_live": report.buffers_live,
            "core.fused_ops": report.fused_ops,
            "core.cse_removed": report.cse_removed,
            "core.compute_ms": compute_ms,
            "core.us_per_op": compute_ms * 1e3 / report.ops_live,
            "core.bytes_per_elem": bytes_per_sweep / nelem,
            "core.flops_per_elem": profile.total_flops / sweeps / nelem,
            "core.achieved_gbs": achieved,
            "core.frac_of_triad": achieved / ceil["ceiling.triad_gbs"],
            "bench.melem_per_s": nelem / untraced_p50_s / 1e6,
        }
        m.update(ceil)
        if self.threads:
            m.update(self._threads_metrics())
        return m

    def _threads_metrics(self):
        """The threaded executor against the serial one, interleaved."""
        nproc = os.cpu_count() or 1
        threaded = UnifiedAssembler(
            self.mesh, PARAMS, mode=self.mode, executor="threads", num_threads=nproc
        )
        field = self.fields[0]
        same = np.array_equal(threaded.assemble(self.variant, field), self.expected[0])
        serial_s, threads_s = [], []
        for _ in range(4 if self.smoke else 12):
            for asm, sink in ((self.asm, serial_s), (threaded, threads_s)):
                t0 = time.perf_counter()
                asm.assemble(self.variant, field)
                sink.append(time.perf_counter() - t0)
        return {
            "parallel.threads_sweep_ms_p50": median_ms(threads_s),
            "parallel.threads_speedup": median_ms(serial_s) / median_ms(threads_s),
            "parallel.threads_bitwise_mismatches": 0 if same else 1,
        }


# ---------------------------------------------------------------------------
# W3: one fractional step
# ---------------------------------------------------------------------------

class LesStep(Workload):
    name = "les_step"
    unit = "step"
    EPISODE = 10       # steps per trajectory; every episode restarts from u0
    min_units = EPISODE
    smoke_min_units = 4
    DT = 1e-3
    CG_ITERATION_CAP = 40
    TWIN_STEPS = 3
    SPEC = "codegen:RSP"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n = 4 if smoke else 24
        self.u0 = velocity_field(seed, (self.n + 1) ** 3)
        self.episode0 = []      # (kinetic energy, CG iterations) of episode 0
        self.velocities0 = []   # velocity after each of its first TWIN_STEPS steps
        self.reports = []

    def _new_solver(self, spec):
        solver = FractionalStepSolver(
            self.mesh, PARAMS, assemble=spec, pressure_solver=self.pressure
        )
        solver.set_velocity(self.u0)
        return solver

    def setup(self, tr):
        with tr.span("box_tet_mesh", "fem"):
            self.mesh = box_tet_mesh(self.n, self.n, self.n)
        with tr.span("PressureSolver", "physics"):
            self.pressure = PressureSolver(self.mesh)
        with tr.span("FractionalStepSolver", "fem"):
            self.solver = self._new_solver(self.SPEC)
        self.divergence_cap = self.solver.max_divergence()
        with tr.span("first_advance", "core"):
            self.warmup = self.solver.advance(self.DT)
        self.setup_gates.append(
            ("warmup_step_finite", bool(np.isfinite(self.solver.velocity).all()), "")
        )

    def prepare(self, i, traced):
        if i % self.EPISODE == 0:
            self.solver = self._new_solver(self.SPEC)

    def run_unit(self, i, tr):
        with tr.span("advance", "physics") as span:
            report = self.solver.advance(self.DT)
        if span is not None:
            tr.add(span, "assembly", "core", report.assembly_seconds)
            tr.add(span, "pressure_solve", "solvers", report.pressure_seconds)
        return report

    def settle(self, i, report, tr):
        self.reports.append(report)
        k = i % self.EPISODE
        ok = (
            np.isfinite([report.kinetic_energy, report.max_velocity]).all()
            and report.dt == self.DT
            and report.pressure_iterations <= self.CG_ITERATION_CAP
            and report.max_divergence <= self.divergence_cap
        )
        signature = (report.kinetic_energy, report.pressure_iterations)
        if i < self.EPISODE:
            self.episode0.append(signature)
            if k < self.TWIN_STEPS:
                self.velocities0.append(self.solver.velocity.copy())
            if k == 0:  # the warm-up step started from the same state
                ok = ok and signature == (
                    self.warmup.kinetic_energy, self.warmup.pressure_iterations
                )
        else:
            ok = ok and signature == self.episode0[k]
        return bool(ok)

    def _twin_gate(self, spec, steps):
        twin = self._new_solver(spec)
        same = True
        for k in range(steps):
            twin.advance(self.DT)
            same = same and np.array_equal(twin.velocity, self.velocities0[k])
        return (f"first_{steps}_steps_bitwise_vs_{spec}", bool(same), "")

    def gates(self, full):
        out = [self._twin_gate("compiled:RSP", min(self.TWIN_STEPS, len(self.velocities0)))]
        if full:
            out.append(self._twin_gate("interpreted:RSP", 1))
        return out

    def layer_metrics(self, tr, untraced_p50_s):
        reports = self.reports
        asm = statistics.median(r.assembly_seconds for r in reports)
        prs = statistics.median(r.pressure_seconds for r in reports)
        step = untraced_p50_s
        episode = reports[: self.EPISODE]
        iters = sum(r.pressure_iterations for r in episode) / len(episode)
        p = self.solver.pressure_field
        return {
            "fem.mesh_build_s": tr.durations("box_tet_mesh")[0],
            "fem.plan_build_s": tr.durations("FractionalStepSolver")[0],
            "core.first_sweep_s": tr.durations("first_advance")[0] - untraced_p50_s,
            "physics.pressure_setup_s": tr.durations("PressureSolver")[0],
            "physics.assembly_ms_per_step": asm * 1e3,
            "physics.pressure_ms_per_step": prs * 1e3,
            "physics.other_ms_per_step": (step - asm - prs) * 1e3,
            "physics.assembly_frac": asm / step,
            "physics.projection_ms": best_of(lambda: self.pressure.pressure_gradient(p)) * 1e3,
            "solvers.cg_iters_per_step": iters,
            "solvers.ms_per_cg_iter": prs * 1e3 / iters,
        }


# ---------------------------------------------------------------------------
# W4 / W5: requests against a spawned server
# ---------------------------------------------------------------------------

class Server:
    """``python -m repro.server`` as its own process, drained on close."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        banner = self.proc.stdout.readline()
        if not banner:
            self.proc.wait(timeout=30)
            raise RuntimeError("server exited before listening")
        host, port = json.loads(banner)["listening"].rsplit(":", 1)
        self.client = CampaignClient(host=host, port=int(port), timeout=120.0)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server process")

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


class Served(Workload):
    """Closed loop, one client thread, one request in flight."""

    unit = "request"
    poll_s = 0.02

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.server = None
        self.responses = {}   # unit index -> (velocity_seed, sha256)
        self.submit_seconds = []
        self.request_seconds = {"miss": [], "hit": []}
        self.wire_bytes = 0

    # subclasses: request(i) -> dict, expect_cached(i) -> bool, direct_sha(velocity_seed)

    def setup(self, tr):
        request = self.request(-1)
        expected = self.direct_sha(request["velocity_seed"])
        t0 = time.perf_counter()
        self.server = Server()
        response = self.server.client.run(request, timeout=120.0, poll_s=self.poll_s)
        self._setup_s = time.perf_counter() - t0
        served = (response.get("result") or {}).get("sha256")
        self.setup_gates.append(("cold_sha256_vs_direct_library", served == expected, ""))

    def setup_seconds(self, spawned_at):
        """Server spawn to first verified response."""
        return self._setup_s

    def warm_up(self):
        """Counters as the timed region starts; ratios are taken past them."""
        self.baseline = self.server.client.stats()["metrics"]

    def _service_seconds(self):
        entry = self.server.client.stats()["metrics"].get("server.service_seconds")
        return 0.0 if entry is None else entry["sum"]

    def prepare(self, i, traced):
        if traced:
            self._service_before = self._service_seconds()

    def run_unit(self, i, tr):
        client, request = self.server.client, self.request(i)
        if not tr.enabled:
            return client.run(request, timeout=120.0, poll_s=self.poll_s), request, None, None
        # client.run, taken apart so that submit is its own span
        with tr.span("request", "server") as span:
            t0 = time.perf_counter()
            with tr.span("submit", "server"):
                submitted = client.submit(request)
            self.submit_seconds.append(time.perf_counter() - t0)
            if submitted.get("state") == "done":
                response = client.result(submitted["job_id"])
                response["cached"] = bool(submitted.get("cached"))
                waited = None
            else:
                with tr.span("wait", "server") as waited:
                    response = client.wait(
                        submitted["job_id"], timeout=120.0, poll_s=self.poll_s
                    )
        return response, request, span, waited

    def settle(self, i, out, tr):
        response, request, span, waited = out
        if span is not None:
            if waited is not None:
                # what the server's executor spent on the job while the
                # client waited is the library's time, not the service's
                tr.add(waited, "service", self.service_layer,
                       self._service_seconds() - self._service_before)
            kind = "hit" if response.get("cached") else "miss"
            self.request_seconds[kind].append(span.seconds)
            self.wire_bytes += len(json.dumps(request)) + len(json.dumps(response))
        result = response.get("result") or {}
        self.responses[i] = (request["velocity_seed"], result.get("sha256"))
        return bool(
            response.get("state") == "done"
            and bool(response.get("cached")) == self.expect_cached(i)
            and result.get("degraded") is False
            and result.get("mode") == request["mode"]
            and np.isfinite(result.get("sum", [np.nan])).all()
            and self.result_ok(result)
        )

    def result_ok(self, result):
        return True

    def _rejected(self, metrics):
        return sum(
            entry["value"] for name, entry in metrics.items()
            if name.startswith("server.rejections.")
        )

    def gates(self, full):
        rejected = self._rejected(self.server.client.stats()["metrics"])
        out = [("zero_typed_rejections", rejected == 0, f"{rejected:g} rejected")]
        units = sorted(self.responses)
        if not full and len(units) > self.hash_sample:
            rng = np.random.default_rng(self.seed)
            units = sorted(rng.choice(units, size=self.hash_sample, replace=False).tolist())
        expected = {}
        wrong = 0
        for i in units:
            vseed, served = self.responses[i]
            if vseed not in expected:
                expected[vseed] = self.direct_sha(vseed)
            wrong += served != expected[vseed]
        out.append((f"sha256_vs_direct_library[{len(units)} of {len(self.responses)}]",
                    wrong == 0, f"{wrong} differ"))
        return out

    def peak_rss_mb(self):
        return self.server.peak_rss_mb()

    def close(self):
        if self.server is not None:
            self.server.close()

    def server_metrics(self):
        m = self.server.client.stats()["metrics"]

        def value(name, since=None):
            start = (since or {}).get(name, {"value": 0.0})["value"]
            return m.get(name, {"value": 0.0})["value"] - start

        hits = value("server.cache.result_hits", self.baseline)
        misses = value("server.cache.result_misses", self.baseline)
        n = sum(len(v) for v in self.request_seconds.values())
        return {
            "server.miss_ms_p50": median_ms(self.request_seconds["miss"]),
            "server.hit_ms_p50": median_ms(self.request_seconds["hit"]),
            "server.submit_ms_p50": median_ms(self.submit_seconds),
            "server.wire_bytes_per_req": self.wire_bytes / n,
            "server.cache_hit_ratio": hits / (hits + misses),
            "server.plan_builds_warm": value("plan.builds") - 1.0,
            "server.rejected": self._rejected(m),
        }


class CampaignServed(Served):
    name = "campaign_served"
    min_units = 3
    smoke_min_units = 2
    service_layer = "physics"
    hash_sample = 2   # direct campaigns cost as much as served ones
    SCENARIOS = 16
    STEPS = 2
    DT = 1e-3
    VARIANT = "B"     # the variant that reads viscosity at run time
    MODE = "codegen"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n = 3 if smoke else 10
        self.scenarios = 4 if smoke else self.SCENARIOS
        rng = np.random.default_rng(seed)
        base = 1e-3 * (1.0 + rng.random())
        self.ladder = [{"viscosity": base * (1.0 + 0.1 * s)} for s in range(self.scenarios)]
        self.mesh = None
        self.direct_seconds = []

    def request(self, i):
        return {
            "kind": "campaign",
            "mesh": {"nx": self.n, "ny": self.n, "nz": self.n},
            "scenarios": self.ladder,
            "variant": self.VARIANT,
            "mode": self.MODE,
            "steps": self.STEPS,
            "dt": self.DT,
            "velocity_seed": self.seed * 100_000 + i + 1,
        }

    def expect_cached(self, i):
        return False

    def result_ok(self, result):
        return (
            result.get("steps") == self.STEPS
            and result.get("detached") == []
            and np.isfinite(result.get("kinetic_energy", [np.nan])).all()
        )

    def _params(self):
        specs = [ScenarioSpec.from_dict(s) for s in self.ladder]
        return [
            AssemblyParams(density=s.density, viscosity=s.viscosity,
                           body_force=s.body_force, vreman_c=VREMAN_C)
            for s in specs
        ]

    def direct_sha(self, velocity_seed):
        """The same campaign through ``BatchCampaign`` in this process."""
        if self.mesh is None:
            self.mesh = box_tet_mesh(self.n, self.n, self.n)
        t0 = time.perf_counter()
        campaign = BatchCampaign(
            self.mesh, self._params(), variant=self.VARIANT, mode=self.MODE
        )
        campaign.set_velocities(velocity_field(velocity_seed, self.mesh.nnode))
        campaign.run(self.STEPS, dt=self.DT)
        final = campaign.velocities()
        self.direct_seconds.append(time.perf_counter() - t0)
        return sha256(final)

    def layer_metrics(self, tr, untraced_p50_s):
        m = self.server_metrics()
        direct = statistics.median(self.direct_seconds[1:])  # [0] was cold
        m["server.campaign_direct_ms"] = direct * 1e3
        m["server.campaign_overhead_frac"] = untraced_p50_s / direct - 1.0
        m["bench.scenario_steps_per_s"] = self.scenarios * self.STEPS / untraced_p50_s
        # one batched sweep against S serial ones, same inputs, in process
        params = self._params()
        field = velocity_field(self.seed, self.mesh.nnode)
        batch = ScenarioBatch(params)
        batched = UnifiedAssembler(self.mesh, params[0], mode=self.MODE)
        serial = [UnifiedAssembler(self.mesh, p, mode=self.MODE) for p in params]
        t_batch = best_of(lambda: batched.run_batch(self.VARIANT, batch, field), 5)
        t_serial = best_of(
            lambda: [a.assemble(self.VARIANT, field) for a in serial], 5
        )
        m["core.batch_sweep_ms_S16"] = t_batch * 1e3
        m["core.batch_speedup_S16"] = t_serial / t_batch
        return m


class ServeSmall(Served):
    name = "serve_small"
    min_units = 30
    smoke_min_units = 9
    service_layer = "core"
    poll_s = 0.002    # at the client's default 20 ms a miss reads 21.8 ms
    hash_sample = 10**9   # a direct assemble is ~1 ms: check every response
    N = 6
    HOT = 0           # unit index whose seed every hit repeats
    SCHEDULE = 30_000
    # A young server is faster: the service time of this request about
    # doubles over its first ~600 executed jobs, then stays flat.  The
    # timed region starts on the flat part, where a long-lived server is.
    WARM_JOBS = 800

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n = 3 if smoke else self.N
        rng = np.random.default_rng(seed)
        # one hit in every block of three requests, at a seeded position
        self.hit_slot = rng.integers(0, 3, size=self.SCHEDULE // 3)
        self.asm = None

    def expect_cached(self, i):
        return i >= 0 and i // 3 < len(self.hit_slot) and i % 3 == self.hit_slot[i // 3]

    def request(self, i):
        fresh = self.seed * 100_000 + i + 1
        return {
            "kind": "assemble",
            "mesh": {"nx": self.n, "ny": self.n, "nz": self.n},
            "variant": "RSP",
            "mode": "compiled",
            # the cold request (i = -1) plants the seed the hits repeat
            "velocity_seed": self.seed * 100_000 + self.HOT
            if i < 0 or self.expect_cached(i) else fresh,
        }

    def warm_up(self):
        request = self.request(1)
        for k in range(20 if self.smoke else self.WARM_JOBS):
            request["velocity_seed"] = self.seed * 100_000 + self.SCHEDULE + k
            self.server.client.run(request, timeout=120.0, poll_s=self.poll_s)
        # the warm-up pushed the hot seed out of the 64-entry result cache
        self.server.client.run(self.request(-1), timeout=120.0, poll_s=self.poll_s)
        super().warm_up()

    def direct_sha(self, velocity_seed):
        if self.asm is None:
            self.mesh = box_tet_mesh(self.n, self.n, self.n)
            params = ScenarioSpec()
            self.asm = UnifiedAssembler(
                self.mesh,
                AssemblyParams(density=params.density, viscosity=params.viscosity,
                               body_force=params.body_force, vreman_c=VREMAN_C),
                mode="compiled",
            )
        return sha256(self.asm.assemble("RSP", velocity_field(velocity_seed, self.mesh.nnode)))

    def layer_metrics(self, tr, untraced_p50_s):
        m = self.server_metrics()
        field = velocity_field(self.seed, self.mesh.nnode)
        direct = best_of(lambda: self.asm.assemble("RSP", field))
        m["server.overhead_ms"] = m["server.miss_ms_p50"] - direct * 1e3
        payload = json.dumps(self.request(1)).encode("utf-8")
        parsed = CampaignRequest.from_json(payload)
        reps = 200
        m["server.parse_us"] = best_of(
            lambda: [CampaignRequest.from_json(payload) for _ in range(reps)]
        ) / reps * 1e6
        m["server.content_key_us"] = best_of(
            lambda: [parsed.content_key() for _ in range(reps)]
        ) / reps * 1e6
        return m


# ---------------------------------------------------------------------------
# W6: regenerate the paper's tables and roofline figure
# ---------------------------------------------------------------------------

class StudyTables(Workload):
    name = "study_tables"
    unit = "regeneration"
    min_units = 3         # ~4.4 s each: the median of two would be their mean
    smoke_min_units = 1
    VARIANTS = ("B", "P", "RS", "RSP", "RSPR")
    REGISTERS = (255, 255, 184, 148, 128)
    #: Table III: local stores, global stores, L2 store bytes, DRAM store bytes
    TABLE3 = {"global": (0, 9, 72, 72), "local": (8, 1, 72, 8), "registers": (0, 1, 8, 8)}

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n = 3 if smoke else 12
        self.mismatches = 0

    def setup(self, tr):
        wrong = self.fidelity_mismatches(self.run_unit(-1, tr))
        self.setup_gates.append(("first_regeneration_fidelity", wrong == 0, f"{wrong} mismatches"))

    def run_unit(self, i, tr):
        with tr.span("OptimizationStudy", "fem"):
            study = OptimizationStudy(
                mesh=box_tet_mesh(self.n, self.n, self.n), seed=self.seed
            )
        with tr.span("trace", "machine"):
            for v in self.VARIANTS:
                study.trace(v)
        with tr.span("gpu_table", "machine"):
            gpu = study.gpu_table()
        with tr.span("cpu_table", "machine"):
            cpu = study.cpu_table()
        with tr.span("table3", "machine"):
            table3 = run_listing3()
        with tr.span("roofline", "machine"):
            points = study.roofline_points(gpu)
            figure = render_ascii(study.roofline(), points["dram"])
        return gpu, cpu, table3, figure

    def fidelity_mismatches(self, out):
        gpu, cpu, table3, figure = out
        wrong = sum(c.registers != r for c, r in zip(gpu, self.REGISTERS))
        wrong += [c.variant for c in gpu] != list(self.VARIANTS)
        for name, want in self.TABLE3.items():
            r = table3[name]
            got = (r.local_stores, r.global_stores, r.l2_store_bytes, r.dram_store_bytes)
            wrong += sum(g != w for g, w in zip(got, want))
        runtimes = [c.runtime_ms for c in gpu]
        wrong += sum(not (a > b > 0.0) for a, b in zip(runtimes, runtimes[1:]))
        wrong += not (len(cpu) == 3 and all(np.isfinite(c.runtime_1c_ms) for c in cpu))
        wrong += not figure.strip()
        return wrong

    def settle(self, i, out, tr):
        wrong = self.fidelity_mismatches(out)
        self.mismatches += wrong
        return wrong == 0

    def gates(self, full):
        return []  # every regeneration is checked whole in settle()

    def layer_metrics(self, tr, untraced_p50_s):
        def med(name):
            return statistics.median(tr.durations(name))

        return {
            "machine.trace_s": med("trace"),
            "machine.gpu_table_s": med("gpu_table"),
            "machine.cpu_table_s": med("cpu_table"),
            "machine.table3_s": med("table3"),
            "machine.roofline_s": med("roofline"),
            "machine.fidelity_mismatches": self.mismatches,
        }


WORKLOADS = {
    "sweep_replay_B": lambda seed, smoke: Sweep(
        seed, smoke, "sweep_replay_B", 16, "compiled", "B"),
    "sweep_codegen_RSP": lambda seed, smoke: Sweep(
        seed, smoke, "sweep_codegen_RSP", 24, "codegen", "RSP", threads=True),
    "les_step": LesStep,
    "campaign_served": CampaignServed,
    "serve_small": ServeSmall,
    "study_tables": StudyTables,
}
