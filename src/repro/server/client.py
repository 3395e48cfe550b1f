"""Synchronous client for the campaign server (tests, benches, examples).

Plain ``socket`` + the same HTTP subset the server speaks; one request
per connection, which :meth:`CampaignClient.run` / :meth:`~CampaignClient.wait`
ask the server to hold until the job is finished.  Raises :class:`~repro.server.protocol.ProtocolError`
with the server's own typed code on any rejection, so callers branch on
``exc.code`` instead of parsing messages.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Optional

from .protocol import ERROR_CODES, ProtocolError

__all__ = ["CampaignClient"]


class CampaignClient:
    """Talk to a :class:`~repro.server.service.CampaignServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8750, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # -- transport ------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            sock.sendall(head + payload)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks)
        header_blob, _, rest = raw.partition(b"\r\n\r\n")
        status_line = header_blob.split(b"\r\n", 1)[0].decode("latin-1")
        try:
            status = int(status_line.split(" ")[1])
        except (IndexError, ValueError) as exc:
            raise ProtocolError(
                "internal", f"unparsable response {status_line!r}"
            ) from exc
        data = json.loads(rest.decode("utf-8")) if rest else {}
        if status >= 400:
            code = data.get("error", "internal")
            if code not in ERROR_CODES:
                code = "internal"
            raise ProtocolError(
                code,
                data.get("message", f"HTTP {status}"),
                retry_after=data.get("retry_after"),
            )
        return data

    # -- API ------------------------------------------------------------
    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a campaign request; returns the submit response
        (``job_id``, ``state``, possibly ``cached``/``coalesced``)."""
        return self._request("POST", "/submit", request)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """Fetch a finished job's result (raises the job's typed error
        for failed/cancelled jobs)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def wait(
        self, job_id: str, timeout: float = 60.0, poll_s: float = 0.02
    ) -> Dict[str, Any]:
        """Hold on ``/jobs/<id>/result`` until the job leaves queued/running;
        returns that response (raising the job's typed error).  The server
        pushes completion: ``poll_s`` is the longest *one* request is held
        before it is asked again at once, not a latency quantum."""
        return self._held("GET", f"/jobs/{job_id}/result", None, timeout, poll_s)

    def run(
        self,
        request: Dict[str, Any],
        timeout: float = 60.0,
        poll_s: float = 0.02,
    ) -> Dict[str, Any]:
        """Submit and hold; returns the result response.  A job that ends
        within ``poll_s`` -- and every cache hit, marked ``"cached": True``
        so callers can tell a served-warm response from a recompute -- is
        one round trip."""
        return self._held("POST", "/submit", request, timeout, poll_s)

    def _held(self, method, path, body, timeout: float, poll_s: float) -> Dict[str, Any]:
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            hold = max(0.0, min(float(poll_s), left, 0.5 * self.timeout))  # < the socket's
            response = self._request(method, f"{path}?wait={hold!r}", body)
            if response["state"] not in ("queued", "running"):
                return response
            if left <= 0.0:
                raise TimeoutError(
                    f"job {response['job_id']} still {response['state']} after {timeout}s"
                )
            method, path, body = "GET", f"/jobs/{response['job_id']}/result", None

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def drain(self) -> Dict[str, Any]:
        return self._request("POST", "/drain")
