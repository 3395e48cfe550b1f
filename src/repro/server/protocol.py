"""Wire protocol of the campaign server: schemas, error taxonomy, HTTP subset.

Everything on the wire is JSON over a minimal, dependency-free HTTP/1.1
subset (request line + headers + ``Content-Length`` body, one request per
connection) -- curl-able, but parsed with ~60 lines of stdlib instead of
a web framework the container doesn't ship.

The schema layer is strict by design: a request either round-trips
``CampaignRequest.from_dict(req.to_dict()) == req`` exactly, or raises a
:class:`ProtocolError` carrying a **typed** rejection code from
:data:`ERROR_CODES`.  There is no stringly-typed failure path -- every
way a request can be refused has exactly one code, one HTTP status, and
one ``server.rejections.<code>`` counter (asserted by the error-taxonomy
tests).

Determinism note: :meth:`CampaignRequest.content_key` hashes the
*canonical* JSON of the request minus identity/QoS fields (``tenant``,
``deadline_ms``), so two tenants submitting the same physics coalesce
onto one execution and hit one cache line.  Python's ``json`` emits
``repr``-exact floats, so a payload that crosses the wire and comes back
hashes -- and compares -- bitwise identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "ERROR_CODES",
    "ProtocolError",
    "MeshSpec",
    "ScenarioSpec",
    "CampaignRequest",
    "canonical_json",
    "sha256_hex",
    "parse_http_request",
    "split_hold",
    "format_http_response",
    "error_body",
]

#: The complete rejection taxonomy: ``code -> HTTP status``.  Every
#: refusal the server can produce uses one of these codes and increments
#: ``server.rejections.<code>`` exactly once.
ERROR_CODES: Dict[str, int] = {
    "malformed": 400,          # unparsable / schema-invalid request
    "not_found": 404,          # unknown endpoint or job id
    "quota_exceeded": 429,     # tenant exceeded its in-flight quota
    "shed": 503,               # queue full: load shed with Retry-After
    "draining": 503,           # server is draining; not admitting
    "breaker_open": 503,       # every mode rung's breaker is open
    "deadline_exceeded": 504,  # request deadline passed before completion
    "internal": 500,           # executor fault that is not the client's
}


class ProtocolError(RuntimeError):
    """A typed request rejection (code from :data:`ERROR_CODES`)."""

    def __init__(
        self,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown rejection code {code!r}")
        super().__init__(message)
        self.code = code
        self.status = ERROR_CODES[code]
        self.retry_after = retry_after


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError("malformed", message)


def _num(v: Any) -> Any:
    """A JSON number as a float (an integer too large for one: infinity,
    which validation refuses); anything else, booleans included, as is."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return v
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _finite(v: Any) -> bool:
    """A float that is neither NaN nor infinite: one client's ``NaN`` must
    be its own ``malformed``, not a failure of every mode rung."""
    return isinstance(v, float) and math.isfinite(v)


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token}")


@dataclasses.dataclass(frozen=True)
class MeshSpec:
    """A structured box mesh, specified (not shipped) over the wire.

    The server builds it with
    :func:`repro.fem.meshgen.box_tet_mesh` -- deterministic, so the spec
    *is* the mesh for caching purposes.
    """

    nx: int
    ny: int
    nz: int
    lengths: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    MAX_CELLS = 64_000  # admission guard: bigger meshes need a real queue

    def validate(self) -> None:
        for name, v in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            _require(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                     f"mesh.{name} must be an integer >= 1, got {v!r}")
        _require(
            self.nx * self.ny * self.nz <= self.MAX_CELLS,
            f"mesh exceeds {self.MAX_CELLS} cells "
            f"({self.nx}x{self.ny}x{self.nz})",
        )
        _require(
            isinstance(self.lengths, tuple) and len(self.lengths) == 3,
            "mesh.lengths must be a 3-sequence",
        )
        for L in self.lengths:
            _require(
                _finite(L) and L > 0.0,
                f"mesh.lengths entries must be positive finite numbers, got {L!r}",
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "nx": self.nx, "ny": self.ny, "nz": self.nz,
            "lengths": list(self.lengths),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "MeshSpec":
        _require(isinstance(data, dict), "mesh must be an object")
        _require(
            set(data) <= {"nx", "ny", "nz", "lengths"},
            f"unknown mesh fields {sorted(set(data) - {'nx', 'ny', 'nz', 'lengths'})}",
        )
        _require(
            {"nx", "ny", "nz"} <= set(data), "mesh needs nx, ny, nz"
        )
        lengths = data.get("lengths", [1.0, 1.0, 1.0])
        _require(
            isinstance(lengths, (list, tuple)) and len(lengths) == 3,
            "mesh.lengths must be a 3-sequence",
        )
        spec = cls(
            nx=data["nx"], ny=data["ny"], nz=data["nz"],
            lengths=tuple(_num(x) for x in lengths),
        )
        spec.validate()
        return spec


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One scenario's physical parameters (a wire-side
    :class:`~repro.physics.momentum.AssemblyParams` subset)."""

    density: float = 1.0
    viscosity: float = 1.0e-3
    body_force: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    vreman_c: Optional[float] = None

    def validate(self) -> None:
        for name, v in (("density", self.density), ("viscosity", self.viscosity)):
            _require(
                _finite(v) and v > 0.0,
                f"scenario.{name} must be a positive finite number, got {v!r}",
            )
        _require(
            isinstance(self.body_force, tuple) and len(self.body_force) == 3,
            "scenario.body_force must be a 3-sequence",
        )
        for f in self.body_force:
            _require(
                _finite(f),
                f"scenario.body_force entries must be finite numbers, got {f!r}",
            )
        if self.vreman_c is not None:
            _require(
                _finite(self.vreman_c) and self.vreman_c >= 0.0,
                f"scenario.vreman_c must be a finite number >= 0, got {self.vreman_c!r}",
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "density": self.density,
            "viscosity": self.viscosity,
            "body_force": list(self.body_force),
        }
        if self.vreman_c is not None:
            out["vreman_c"] = self.vreman_c
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        _require(isinstance(data, dict), "scenario must be an object")
        allowed = {"density", "viscosity", "body_force", "vreman_c"}
        _require(
            set(data) <= allowed,
            f"unknown scenario fields {sorted(set(data) - allowed)}",
        )

        bf = data.get("body_force", [0.0, 0.0, 0.0])
        _require(
            isinstance(bf, (list, tuple)) and len(bf) == 3,
            "scenario.body_force must be a 3-sequence",
        )
        vc = data.get("vreman_c")
        spec = cls(
            density=_num(data.get("density", 1.0)),
            viscosity=_num(data.get("viscosity", 1.0e-3)),
            body_force=tuple(_num(x) for x in bf),
            vreman_c=None if vc is None else _num(vc),
        )
        spec.validate()
        return spec


_KINDS = ("assemble", "batch", "campaign")
_MODES = ("codegen", "compiled", "interpreted", "reference")


@dataclasses.dataclass(frozen=True)
class CampaignRequest:
    """One unit of admitted work.

    ``kind``
        ``"assemble"`` -- one RHS assembly of scenario 0;
        ``"batch"`` -- one batched ``(S, nnode, 3)`` assembly of all
        scenarios; ``"campaign"`` -- ``steps`` lockstep time steps of a
        :class:`~repro.physics.fractional_step.BatchCampaign`.
    ``mode``
        Preferred execution mode; the server may degrade down the
        ladder (``codegen -> compiled -> interpreted -> reference``)
        when a rung's circuit breaker is open.
    ``deadline_ms``
        Server-side deadline from admission; propagated into the
        executor as a :class:`~repro.resilience.cancel.CancelToken`.
    ``return_field``
        Include the full result field in the response (JSON floats
        round-trip exactly, so the field is bitwise-faithful); the
        sha256 checksum is always included.
    """

    kind: str
    mesh: MeshSpec
    scenarios: Tuple[ScenarioSpec, ...] = (ScenarioSpec(),)
    variant: str = "RSP"
    mode: str = "compiled"
    steps: int = 0
    dt: Optional[float] = None
    velocity_seed: int = 0
    vector_dim: Optional[int] = None
    tenant: str = "default"
    deadline_ms: Optional[float] = None
    return_field: bool = False

    def validate(self) -> None:
        _require(self.kind in _KINDS, f"kind must be one of {_KINDS}, got {self.kind!r}")
        _require(self.mode in _MODES, f"mode must be one of {_MODES}, got {self.mode!r}")
        self.mesh.validate()
        _require(len(self.scenarios) >= 1, "at least one scenario required")
        _require(len(self.scenarios) <= 64, "at most 64 scenarios per request")
        for s in self.scenarios:
            s.validate()
        _require(
            isinstance(self.variant, str) and self.variant.isalpha(),
            f"variant must be an alphabetic string, got {self.variant!r}",
        )
        _require(
            isinstance(self.steps, int) and not isinstance(self.steps, bool)
            and 0 <= self.steps <= 1000,
            f"steps must be an integer in [0, 1000], got {self.steps!r}",
        )
        if self.kind == "campaign":
            _require(self.steps >= 1, "campaign requests need steps >= 1")
        if self.dt is not None:
            _require(
                _finite(self.dt) and self.dt > 0.0,
                f"dt must be a positive finite number, got {self.dt!r}",
            )
        _require(
            isinstance(self.velocity_seed, int)
            and not isinstance(self.velocity_seed, bool),
            f"velocity_seed must be an integer, got {self.velocity_seed!r}",
        )
        if self.vector_dim is not None:
            _require(
                isinstance(self.vector_dim, int)
                and not isinstance(self.vector_dim, bool)
                and 1 <= self.vector_dim <= 4096,
                f"vector_dim must be an integer in [1, 4096], got {self.vector_dim!r}",
            )
        _require(
            isinstance(self.tenant, str) and 1 <= len(self.tenant) <= 64,
            "tenant must be a 1..64 character string",
        )
        if self.deadline_ms is not None:
            _require(
                _finite(self.deadline_ms) and self.deadline_ms > 0.0,
                f"deadline_ms must be a positive finite number, got {self.deadline_ms!r}",
            )
        _require(
            isinstance(self.return_field, bool),
            "return_field must be a boolean",
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "mesh": self.mesh.to_dict(),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "variant": self.variant,
            "mode": self.mode,
            "steps": self.steps,
            "velocity_seed": self.velocity_seed,
            "tenant": self.tenant,
            "return_field": self.return_field,
        }
        if self.dt is not None:
            out["dt"] = self.dt
        if self.vector_dim is not None:
            out["vector_dim"] = self.vector_dim
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "CampaignRequest":
        _require(isinstance(data, dict), "request must be a JSON object")
        allowed = {
            "kind", "mesh", "scenarios", "variant", "mode", "steps", "dt",
            "velocity_seed", "vector_dim", "tenant", "deadline_ms",
            "return_field",
        }
        _require(
            set(data) <= allowed,
            f"unknown request fields {sorted(set(data) - allowed)}",
        )
        _require("kind" in data and "mesh" in data, "request needs kind and mesh")
        raw_scenarios = data.get("scenarios", [{}])
        _require(
            isinstance(raw_scenarios, list) and raw_scenarios,
            "scenarios must be a non-empty list",
        )

        dt = data.get("dt")
        deadline = data.get("deadline_ms")
        req = cls(
            kind=data["kind"],
            mesh=MeshSpec.from_dict(data["mesh"]),
            scenarios=tuple(ScenarioSpec.from_dict(s) for s in raw_scenarios),
            variant=data.get("variant", "RSP"),
            mode=data.get("mode", "compiled"),
            steps=data.get("steps", 0),
            dt=None if dt is None else _num(dt),
            velocity_seed=data.get("velocity_seed", 0),
            vector_dim=data.get("vector_dim"),
            tenant=data.get("tenant", "default"),
            deadline_ms=None if deadline is None else _num(deadline),
            return_field=data.get("return_field", False),
        )
        req.validate()
        return req

    @classmethod
    def from_json(cls, payload: bytes) -> "CampaignRequest":
        """Parse a request body; ``NaN`` / ``Infinity`` / ``-Infinity`` tokens
        and numbers beyond float range are ``malformed``, like any other
        invalid JSON (integers past the parser's digit limit included)."""
        try:
            data = json.loads(payload.decode("utf-8"), parse_constant=_reject_constant)
        except (UnicodeDecodeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ProtocolError("malformed", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def content_key(self) -> str:
        """Identity-free content hash (coalescing / result-cache key)."""
        content = self.to_dict()
        content.pop("tenant", None)
        content.pop("deadline_ms", None)
        return sha256_hex(canonical_json(content))


def canonical_json(obj: Any) -> bytes:
    """Sorted-key, minimal-separator JSON bytes (stable hash input)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Minimal HTTP/1.1 subset
# ---------------------------------------------------------------------------

MAX_BODY_BYTES = 4 * 1024 * 1024
_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def parse_http_request(
    head: bytes,
) -> Tuple[str, str, Dict[str, str]]:
    """Parse a request head (through the blank line) into
    ``(method, path, headers)``; raises :class:`ProtocolError` on junk."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ProtocolError("malformed", "undecodable request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError("malformed", f"bad request line {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError("malformed", f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        n = int(length)
    except ValueError:
        raise ProtocolError(
            "malformed", f"bad Content-Length {length!r}"
        ) from None
    if n < 0 or n > MAX_BODY_BYTES:
        raise ProtocolError(
            "malformed", f"Content-Length {n} outside [0, {MAX_BODY_BYTES}]"
        )
    return method, path, headers


#: The longest one request is held open, whatever ``?wait=`` asks for: shorter
#: than the client's default socket timeout, so a held request is always answered.
MAX_HOLD_S = 10.0


def split_hold(target: str) -> Tuple[str, Optional[float]]:
    """``path?wait=<seconds>`` as ``(path, seconds)``, clamped to
    :data:`MAX_HOLD_S`; ``None`` without a query.  ``wait`` is the only key,
    once, finite and non-negative: anything else is ``malformed``."""
    path, has_query, query = target.partition("?")
    if not has_query:
        return path, None
    key, _, value = query.partition("=")
    try:
        wait = float(value) if key == "wait" else math.nan
    except ValueError:
        wait = math.nan
    if not 0.0 <= wait < math.inf:
        raise ProtocolError(
            "malformed", f"bad query {query!r}: only wait=<seconds >= 0> is understood"
        )
    return path, min(wait, MAX_HOLD_S)


def format_http_response(
    status: int,
    body: Dict[str, Any],
    retry_after: Optional[float] = None,
) -> bytes:
    """One JSON response, ``Connection: close`` (one request per
    connection keeps the server ~200 lines instead of a framework)."""
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    if retry_after is not None:
        headers.append(f"Retry-After: {max(0.0, retry_after):.3f}")
    return "\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + payload


def error_body(exc: ProtocolError) -> Dict[str, Any]:
    """The canonical rejection body: ``{"error": code, "message": ...}``."""
    body: Dict[str, Any] = {"error": exc.code, "message": str(exc)}
    if exc.retry_after is not None:
        body["retry_after"] = exc.retry_after
    return body
