"""The campaign server: an always-available assembly-as-a-service layer.

One asyncio TCP server speaking the :mod:`repro.server.protocol` HTTP
subset, fronting the existing execution stack
(:class:`~repro.core.unified.UnifiedAssembler`,
:class:`~repro.physics.fractional_step.BatchCampaign`) with the
production concerns the library layer deliberately doesn't have:

* **admission control** (:mod:`repro.server.admission`) -- bounded
  queue, per-tenant quotas, load shedding with ``Retry-After``;
* **deadlines** -- each admitted job carries a
  :class:`~repro.resilience.cancel.CancelToken`; expiry surfaces as a
  typed ``deadline_exceeded`` rejection, never a wedged slot;
* **circuit breakers** (:mod:`repro.server.breaker`) per
  ``(variant, mode)``, routing work down the mode ladder away from
  repeatedly-failing rungs;
* **content caches** (:mod:`repro.server.cache`) -- warm meshes/plans
  and digest-verified finished results, plus in-flight coalescing of
  identical submissions;
* **graceful drain** -- stop admitting, cancel queued work with typed
  rejections, checkpoint in-flight campaigns, join every worker task.

Endpoints: ``POST /submit``, ``GET /jobs/<id>``,
``GET /jobs/<id>/result``, ``GET /health``, ``GET /stats``,
``POST /drain``.  Completion is pushed, not polled: ``POST /submit?wait=<s>``
and ``GET /jobs/<id>/result?wait=<s>`` hold the connection until the job
leaves ``queued``/``running`` or ``<s>`` seconds (at most
:data:`~repro.server.protocol.MAX_HOLD_S`) pass, and answer with the
``/result`` body: the result inline (plus ``cached`` / ``coalesced``), the
job's typed error, or the 202 status on expiry.  Terminal jobs stay
fetchable newest-first up to ``result_cache_entries``; an older id is
``not_found``.  Everything is observable through ``server.*`` and
``resilience.*`` metrics in :mod:`repro.obs`.

Results are **bitwise-faithful**: the executor runs the exact library
code paths, the response carries the sha256 of the raw result bytes, and
(with ``return_field``) the field itself as repr-exact JSON floats --
the integration tests assert byte equality against direct library calls.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import numpy as np

from ..obs.metrics import get_registry
from ..resilience.cancel import CancelToken, CooperativeCancel
from ..resilience.ladders import record_escalation
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .cache import MeshCache, ResultCache
from .protocol import (
    ERROR_CODES,
    CampaignRequest,
    ProtocolError,
    error_body,
    format_http_response,
    parse_http_request,
    sha256_hex,
    split_hold,
)

__all__ = ["ServerConfig", "CampaignServer", "ServerHandle"]

_BREAKER_RESET_S = 30.0  # an open breaker's wait before its half-open probe
_MESH_CACHE_ENTRIES = 8  # warm meshes (and their plans) kept
_SLOW_CLIENT_S = 0.2  # clamp on an injected slow client write


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """SLO and sizing knobs of one :class:`CampaignServer`.

    ``max_stall_s`` clamps the *injected* ``server_queue`` fault delays
    (and ``_SLOW_CLIENT_S`` the ``server_client`` ones) so chaos tests
    stay fast while still exercising the timeout paths.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port lands on server.port)
    workers: int = 1
    max_queue_depth: int = 16
    max_per_tenant: int = 4
    breaker_threshold: int = 3
    default_deadline_s: float = 120.0
    max_stall_s: float = 0.25
    result_cache_entries: int = 64
    checkpoint_dir: Optional[str] = None


class _JobCheckpointed(Exception):
    """Internal: a drained campaign checkpointed instead of finishing."""

    def __init__(self, paths: List[str]) -> None:
        super().__init__(f"checkpointed {len(paths)} scenarios")
        self.paths = paths


@dataclasses.dataclass
class _Job:
    id: str
    request: CampaignRequest
    content_key: str
    cancel: CancelToken
    state: str = "queued"  # queued|running|done|failed|cancelled|checkpointed
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    checkpoints: Optional[List[str]] = None
    submitted_at: float = dataclasses.field(default_factory=time.monotonic)
    #: set once the job is terminal: what a held connection waits on
    finished: asyncio.Event = dataclasses.field(default_factory=asyncio.Event, repr=False)

    def status(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"job_id": self.id, "state": self.state}
        if self.error is not None:
            # flatten to the canonical rejection shape: {"error": code,
            # "message": ...} -- same as an immediate HTTP rejection.
            out.update(self.error)
        if self.checkpoints is not None:
            out["checkpoints"] = self.checkpoints
        return out


class CampaignServer:
    """Asyncio campaign server over a local TCP socket.

    Use :meth:`start_in_thread` from synchronous code (tests, benches,
    the CLI wraps the asyncio entrypoints directly).
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        fault_plan=None,
    ) -> None:
        self.config = config or ServerConfig()
        self.fault_plan = fault_plan
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            max_per_tenant=self.config.max_per_tenant,
            workers=self.config.workers,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout_s=_BREAKER_RESET_S,
        )
        self.mesh_cache = MeshCache(max_entries=_MESH_CACHE_ENTRIES)
        self.result_cache = ResultCache(
            max_entries=self.config.result_cache_entries, fault_plan=fault_plan
        )
        self.jobs: Dict[str, _Job] = {}  # every live job + the newest terminal ones
        self._terminal: collections.deque = collections.deque()  # their ids, oldest first
        self._by_state: collections.Counter = collections.Counter()
        self._handlers: Dict[asyncio.Task, bool] = {}  # connection -> still reading its request
        self.port: Optional[int] = None
        self._ids = itertools.count(1)
        self._inflight: Dict[str, str] = {}  # content_key -> job_id
        self._queue: Optional[asyncio.Queue] = None
        self._worker_tasks: List[asyncio.Task] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._drained = asyncio.Event()
        self._stopped = asyncio.Event()
        self._lock = threading.Lock()  # guards jobs/_inflight across threads

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the worker tasks."""
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="campaign-exec",
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"campaign-worker-{i}")
            for i in range(self.config.workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`shutdown` completes (the CLI entrypoint)."""
        await self._stopped.wait()

    async def drain(self) -> Dict[str, Any]:
        """Graceful drain: reject queued work, checkpoint in-flight
        campaigns, join every worker task.

        The listener stays open so clients can still fetch job status,
        results and checkpoint paths (and get typed ``draining``
        rejections for new work); :meth:`shutdown` closes it.
        Idempotent; returns a summary for the ``/drain`` response.  On
        return there are **no** live worker tasks, executor threads or
        compiler children -- the no-leak tests assert exactly that.
        """
        self.admission.start_draining()
        rejected = []
        # queued jobs never started: typed `draining` rejection.
        while self._queue is not None and not self._queue.empty():
            job_id = self._queue.get_nowait()
            if job_id is None:
                continue
            job = self.jobs[job_id]
            self._set_state(job, "cancelled")
            job.error = {
                "error": "draining",
                "message": "server drained before the job started",
            }
            get_registry().counter("server.rejections.draining").inc()
            self._finish_job(job)
            self._queue.task_done()
            rejected.append(job_id)
        # running jobs: cooperative cancel with reason "drain" --
        # campaigns checkpoint at the next step boundary.
        running = [j for j in self.jobs.values() if j.state == "running"]
        for job in running:
            job.cancel.cancel("drain")
        if self._worker_tasks:
            for _ in self._worker_tasks:
                self._queue.put_nowait(None)
            await asyncio.gather(*self._worker_tasks)
            self._worker_tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        # no compiler child a generated kernel started outlives the drain
        from ..core.codegen import stop_builds

        stop_builds()
        self._drained.set()
        return {
            "draining": True,
            "rejected_queued": rejected,
            "cancelled_running": [j.id for j in running],
        }

    async def shutdown(self) -> Dict[str, Any]:
        """Drain, close the listening socket, join every connection
        handler and release the loop."""
        summary = await self.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # the drain answered every held connection; one that has not sent its
        # request yet (a half-open socket) is owed nothing and would wait 10 s
        handlers = [t for t in self._handlers if t is not asyncio.current_task()]
        for task in handlers:
            if self._handlers[task]:
                task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        self._stopped.set()
        return summary

    def _set_state(self, job: _Job, state: str) -> None:
        self._by_state[job.state] -= 1
        self._by_state[state] += 1
        job.state = state

    def _finish_job(self, job: _Job, admitted: bool = True) -> None:
        """The one place a job becomes terminal: frees its slot, wakes the
        connections held on it and retires the oldest terminal job past the bound."""
        if admitted:
            self.admission.release(job.request.tenant)
        with self._lock:
            if self._inflight.get(job.content_key) == job.id:
                self._inflight.pop(job.content_key, None)
            self._terminal.append(job.id)
            while len(self._terminal) > self.config.result_cache_entries:
                self.jobs.pop(self._terminal.popleft(), None)
        job.finished.set()

    # -- connection handling --------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = get_registry()
        registry.counter("server.requests").inc()
        task = asyncio.current_task()
        self._handlers[task] = True
        task.add_done_callback(self._handlers.pop)
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10.0
                )
                method, path, headers = parse_http_request(head)
                n = int(headers.get("content-length", "0"))
                body = await asyncio.wait_for(
                    reader.readexactly(n), timeout=10.0
                ) if n else b""
                self._handlers[task] = False  # from here on it is owed a response
            except asyncio.CancelledError:
                # only shutdown() cancels, and only a connection still waiting for
                # its request; ending *cancelled* would make asyncio's stream
                # protocol (3.11) log a traceback for every such socket
                writer.close()
                return
            except ProtocolError:
                raise
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    asyncio.TimeoutError, ValueError) as exc:
                raise ProtocolError(
                    "malformed", f"bad request framing: {exc}"
                ) from exc
            # chaos: garble the body in flight -- must surface as a typed
            # `malformed` rejection, never a 500 or a hung connection.
            if self.fault_plan is not None and body:
                body, _ = self.fault_plan.corrupt_bytes("server_request", body)
            response = await self._dispatch(method, path, body)
        except ProtocolError as exc:
            registry.counter(f"server.rejections.{exc.code}").inc()
            response = format_http_response(
                exc.status, error_body(exc), retry_after=exc.retry_after
            )
        except Exception as exc:  # never leak a traceback onto the wire
            err = ProtocolError("internal", f"{type(exc).__name__}: {exc}")
            registry.counter("server.rejections.internal").inc()
            response = format_http_response(err.status, error_body(err))
        # chaos: slow client -- response write is delayed but bounded, so
        # one slow reader cannot wedge the accept loop.
        if self.fault_plan is not None:
            spec = self.fault_plan.draw("server_client")
            if spec is not None and spec.kind == "slow":
                await asyncio.sleep(min(spec.delay or _SLOW_CLIENT_S, _SLOW_CLIENT_S))
        try:
            writer.write(response)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, method: str, path: str, body: bytes) -> bytes:
        path, wait = split_hold(path)
        if method == "POST" and path == "/submit":
            return await self._submit(body, wait)
        if method == "POST" and path == "/drain":
            summary = await self.drain()
            return format_http_response(200, summary)
        if method == "GET" and path == "/health":
            return format_http_response(200, self._health())
        if method == "GET" and path == "/stats":
            return format_http_response(200, self._stats())
        if method == "GET" and path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/result"):
                return await self._job_result(rest[: -len("/result")], wait)
            return self._job_status(rest)
        raise ProtocolError("not_found", f"no endpoint {method} {path}")

    # -- endpoints ------------------------------------------------------
    async def _submit(self, body: bytes, wait: Optional[float]) -> bytes:
        registry = get_registry()
        request = CampaignRequest.from_json(body)
        content_key = request.content_key()
        # cached result: served even under full queue or drain -- no work
        # is admitted, so availability of warm content never degrades.
        cached = self.result_cache.get(content_key)
        if cached is not None:
            job = self._new_job(request, content_key, admitted=False)
            self._set_state(job, "done")
            job.result = cached
            self._finish_job(job, admitted=False)
            return await self._answer(job, wait, cached=True)
        # in-flight coalescing: identical physics rides the same job.
        with self._lock:
            leader_id = self._inflight.get(content_key)
        if leader_id is not None and self.jobs[leader_id].state in (
            "queued", "running"
        ):
            registry.counter("server.coalesced").inc()
            return await self._answer(self.jobs[leader_id], wait, coalesced=True)
        self.admission.admit(request.tenant)  # raises typed rejections
        job = self._new_job(request, content_key, admitted=True)
        with self._lock:
            self._inflight[content_key] = job.id
        await self._queue.put(job.id)
        return await self._answer(job, wait)

    async def _answer(self, job: _Job, wait: Optional[float], **flags) -> bytes:
        """A submit's response: the job's status at once, or with ``?wait=``
        its result, held for."""
        if wait is None:
            return format_http_response(
                200 if job.state == "done" else 202, {**job.status(), **flags}
            )
        return await self._job_result(job.id, wait, **flags)

    def _new_job(
        self, request: CampaignRequest, content_key: str, admitted: bool
    ) -> _Job:
        deadline_s = (
            request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else self.config.default_deadline_s
        )
        job = _Job(
            id=f"job-{next(self._ids):06d}",
            request=request,
            content_key=content_key,
            cancel=CancelToken(deadline_s=deadline_s if admitted else None),
        )
        with self._lock:
            self.jobs[job.id] = job
            self._by_state[job.state] += 1
        return job

    def _job_status(self, job_id: str) -> bytes:
        job = self.jobs.get(job_id)
        if job is None:
            raise ProtocolError("not_found", f"no job {job_id!r}")
        return format_http_response(200, job.status())

    async def _job_result(
        self, job_id: str, wait: Optional[float] = None, **flags
    ) -> bytes:
        job = self.jobs.get(job_id)
        if job is None:
            raise ProtocolError("not_found", f"no job {job_id!r}")
        if wait and not job.finished.is_set():
            registry, t0 = get_registry(), time.monotonic()
            try:
                await asyncio.wait_for(job.finished.wait(), timeout=wait)
            except asyncio.TimeoutError:
                pass
            registry.histogram("server.hold_seconds").record(time.monotonic() - t0)
        body = {**job.status(), **flags}
        if job.state == "done":
            return format_http_response(200, {**body, "result": job.result})
        if job.state in ("queued", "running"):
            # expired means answered without a result, so the client asks
            # again: a job that ends between the timeout and here is not one
            if wait:
                get_registry().counter("server.holds_expired").inc()
            return format_http_response(202, body)
        # failed / cancelled / checkpointed: replay the typed error.
        status = 500
        if job.error is not None:
            status = ERROR_CODES.get(job.error.get("error", "internal"), 500)
        return format_http_response(status, body)

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.admission.draining else "ok",
            "queue_depth": self.admission.depth,
            "workers": self.config.workers,
            "retry_after_hint": self.admission.retry_after(),
        }

    def _stats(self) -> Dict[str, Any]:
        snap = get_registry().snapshot()
        interesting = {
            name: data
            for name, data in snap.items()
            if name.startswith(("server.", "resilience.", "plan."))
        }
        return {
            "metrics": interesting,
            "breakers": self.breaker.snapshot(),
            "jobs": {state: n for state, n in self._by_state.items() if n},
            "mesh_cache_entries": len(self.mesh_cache),
            "result_cache_entries": len(self.result_cache),
            "queue_depth": self.admission.depth,
        }

    # -- job execution --------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job_id = await self._queue.get()
            if job_id is None:
                self._queue.task_done()
                return
            job = self.jobs[job_id]
            try:
                await self._run_job(job)
            finally:
                self._finish_job(job)
                self._queue.task_done()

    async def _run_job(self, job: _Job) -> None:
        registry = get_registry()
        # chaos: queue stall before dispatch (clamped, then the deadline
        # check below turns an over-long stall into a typed rejection).
        if self.fault_plan is not None:
            spec = self.fault_plan.draw("server_queue")
            if spec is not None and spec.kind == "slow":
                await asyncio.sleep(
                    min(spec.delay or self.config.max_stall_s,
                        self.config.max_stall_s)
                )
        if job.cancel.cancelled:
            reason = job.cancel.reason
            code = "deadline_exceeded" if reason == "deadline" else "draining"
            self._set_state(job, "cancelled")
            job.error = {"error": code, "message": f"cancelled before start ({reason})"}
            registry.counter(f"server.rejections.{code}").inc()
            registry.counter("server.jobs_cancelled").inc()
            return
        self._set_state(job, "running")
        t0 = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(
                self._executor, self._run_job_sync, job
            )
        except _JobCheckpointed as exc:
            self._set_state(job, "checkpointed")
            job.checkpoints = exc.paths
            registry.counter("server.jobs_checkpointed").inc()
            return
        except CooperativeCancel as exc:
            code = (
                "deadline_exceeded" if exc.reason == "deadline" else "draining"
            )
            self._set_state(job, "cancelled")
            job.error = {"error": code, "message": str(exc)}
            registry.counter(f"server.rejections.{code}").inc()
            registry.counter("server.jobs_cancelled").inc()
            return
        except ProtocolError as exc:
            self._set_state(job, "failed")
            job.error = error_body(exc)
            registry.counter(f"server.rejections.{exc.code}").inc()
            registry.counter("server.jobs_failed").inc()
            return
        except Exception as exc:
            self._set_state(job, "failed")
            job.error = {
                "error": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }
            registry.counter("server.rejections.internal").inc()
            registry.counter("server.jobs_failed").inc()
            return
        seconds = time.monotonic() - t0
        job.result = payload
        self._set_state(job, "done")
        self.result_cache.put(job.content_key, payload)
        self.admission.record_service_time(seconds)
        registry.counter("server.jobs_completed").inc()
        registry.histogram("server.service_seconds").record(seconds)

    # -- synchronous execution (runs in the executor thread) ------------
    def _run_job_sync(self, job: _Job) -> Dict[str, Any]:
        from ..core.unified import SpecializationError
        from ..physics.momentum import VREMAN_C, AssemblyParams

        req = job.request
        if self.fault_plan is not None:
            spec = self.fault_plan.draw("server_exec")
            if spec is not None:
                if spec.kind == "slow":
                    time.sleep(min(spec.delay or self.config.max_stall_s,
                                   self.config.max_stall_s))
                elif spec.kind == "crash":
                    raise ProtocolError(
                        "internal", "injected executor crash"
                    )
        self._check_cancel(job)
        mesh = self.mesh_cache.get(req.mesh)
        params = [
            AssemblyParams(
                density=s.density,
                viscosity=s.viscosity,
                body_force=s.body_force,
                vreman_c=VREMAN_C if s.vreman_c is None else s.vreman_c,
            )
            for s in req.scenarios
        ]
        rng = np.random.default_rng(req.velocity_seed)
        velocity = 0.1 * rng.standard_normal((mesh.nnode, 3))
        modes = self.breaker.route(req.variant, req.mode)
        if req.kind == "campaign":
            # BatchCampaign drives UnifiedAssembler directly; "reference"
            # is not an assembler mode, so the campaign ladder bottoms
            # out at interpreted.
            modes = [m for m in modes if m != "reference"]
        if not modes:
            raise ProtocolError(
                "breaker_open",
                f"every mode rung for variant {req.variant!r} is open",
            )
        last_error: Optional[Exception] = None
        for mode in modes:
            self._check_cancel(job)
            try:
                payload = self._execute(req, mesh, params, velocity, mode, job)
            except (CooperativeCancel, _JobCheckpointed):
                raise
            except SpecializationError as exc:
                # the requested variant cannot represent the requested
                # physics (specialized constants differ) -- a client
                # error, not a rung failure: no breaker, no degradation.
                raise ProtocolError("malformed", str(exc)) from exc
            except Exception as exc:
                last_error = exc
                self.breaker.record_failure((req.variant, mode))
                record_escalation(
                    "AssemblerDegradation",
                    "resilience.assembler_degradations",
                    variant=req.variant,
                    mode=mode,
                    reason=f"{type(exc).__name__}: {exc}",
                )
                continue
            self.breaker.record_success((req.variant, mode))
            payload["mode"] = mode
            payload["degraded"] = mode != req.mode
            return payload
        raise ProtocolError(
            "internal",
            f"all rungs failed for variant {req.variant!r} "
            f"(last: {type(last_error).__name__}: {last_error})",
        )

    @staticmethod
    def _check_cancel(job: _Job) -> None:
        """``job.cancel.check()``, except that a drain lets a campaign
        through to :meth:`_run_campaign`: the job is ``running`` before
        this thread gets here, and a drained campaign checkpoints -- its
        ``run`` checks the token before step 1, so a drain that lands
        before the campaign starts checkpoints the step-0 state."""
        try:
            job.cancel.check()
        except CooperativeCancel as exc:
            if exc.reason != "drain" or job.request.kind != "campaign":
                raise

    def _execute(
        self,
        req: CampaignRequest,
        mesh,
        params: List,
        velocity: np.ndarray,
        mode: str,
        job: _Job,
    ) -> Dict[str, Any]:
        if req.kind == "assemble":
            rhs = self._assemble(req, mesh, params[:1], velocity, mode)
            return self._field_payload(req, rhs[0], kind="assemble")
        if req.kind == "batch":
            rhs = self._assemble(req, mesh, params, velocity, mode)
            return self._field_payload(req, rhs, kind="batch")
        return self._run_campaign(req, mesh, params, velocity, mode, job)

    def _assemble(self, req, mesh, params, velocity, mode) -> np.ndarray:
        """The ``(S, nnode, 3)`` stack of ``params``' RHS; one non-finite
        value fails the rung."""
        if mode == "reference":
            from ..physics.momentum import assemble_momentum_rhs

            rhs = np.stack([
                assemble_momentum_rhs(mesh, velocity, p) for p in params
            ])
        else:
            from ..core.batch import ScenarioBatch
            from ..core.unified import UnifiedAssembler

            asm = UnifiedAssembler(
                mesh, params[0], mode=mode, vector_dim=req.vector_dim,
                fault_plan=self.fault_plan,
            )
            rhs = asm.run_batch(req.variant, ScenarioBatch(params), velocity)
        if not np.isfinite(rhs).all():
            raise RuntimeError(f"non-finite RHS from mode {mode!r}")
        return rhs

    def _run_campaign(
        self, req, mesh, params, velocity, mode, job
    ) -> Dict[str, Any]:
        from ..physics.fractional_step import BatchCampaign

        campaign = BatchCampaign(
            mesh,
            params,
            variant=req.variant,
            mode=mode,
            vector_dim=req.vector_dim,
        )
        campaign.set_velocities(velocity)
        try:
            reports = campaign.run(
                req.steps, dt=req.dt, cancel=job.cancel
            )
        except CooperativeCancel as exc:
            if (
                exc.reason == "drain"
                and self.config.checkpoint_dir is not None
            ):
                directory = os.path.join(self.config.checkpoint_dir, job.id)
                raise _JobCheckpointed(campaign.checkpoint(directory)) from exc
            raise
        final = campaign.velocities()
        if not np.isfinite(final).all():
            raise RuntimeError(f"non-finite campaign state from mode {mode!r}")
        payload = self._field_payload(req, final, kind="campaign")
        payload["steps"] = len(reports)
        payload["kinetic_energy"] = [
            sv.kinetic_energy() for sv in campaign.solvers
        ]
        payload["detached"] = list(campaign.detached)
        return payload

    def _field_payload(
        self, req: CampaignRequest, field: np.ndarray, kind: str
    ) -> Dict[str, Any]:
        field = np.ascontiguousarray(field, dtype=np.float64)
        payload: Dict[str, Any] = {
            "kind": kind,
            "variant": req.variant,
            "shape": list(field.shape),
            "sha256": sha256_hex(field.tobytes()),
            "sum": [float(x) for x in field.reshape(-1, 3).sum(axis=0)],
        }
        if req.return_field:
            payload["field"] = field.tolist()
        return payload

    # -- synchronous embedding ------------------------------------------
    def start_in_thread(self) -> "ServerHandle":
        """Run the server on a dedicated event-loop thread.

        Returns a :class:`ServerHandle` once the socket is bound --
        the pattern tests, benches and examples use to talk to a live
        server from synchronous code.
        """
        started = threading.Event()
        failure: List[BaseException] = []
        handle = ServerHandle(self)

        async def _main() -> None:
            try:
                await self.start()
            except BaseException as exc:  # pragma: no cover - bind errors
                failure.append(exc)
                started.set()
                raise
            handle.loop = asyncio.get_running_loop()
            started.set()
            await self.serve_until_drained()

        def _runner() -> None:
            try:
                asyncio.run(_main())
            except BaseException as exc:  # pragma: no cover
                if not failure:
                    failure.append(exc)
                started.set()

        handle.thread = threading.Thread(
            target=_runner, name="campaign-server", daemon=True
        )
        handle.thread.start()
        started.wait(timeout=30.0)
        if failure:
            raise failure[0]
        if self.port is None:
            raise RuntimeError("campaign server failed to bind")
        return handle


class ServerHandle:
    """Synchronous handle to a server running on its own loop thread."""

    def __init__(self, server: CampaignServer) -> None:
        self.server = server
        self.thread: Optional[threading.Thread] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        if self.thread is None or not self.thread.is_alive():
            return
        assert self.loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        )
        future.result(timeout=timeout)
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():  # pragma: no cover - diagnostics only
            raise RuntimeError("campaign server thread failed to stop")
