"""Content-hash caches: meshes (and their warm plans) and finished results.

Two layers, two very different lifetimes:

* :class:`MeshCache` -- ``MeshSpec`` hash -> the constructed
  :class:`~repro.fem.mesh.TetMesh`.  This is the *performance* cache:
  :func:`repro.fem.plan.get_plan` stores the plan on the mesh object, so
  keeping the mesh alive keeps its :class:`~repro.fem.plan.AssemblyPlan`
  -- compiled tapes, codegen modules, solver operators -- hot across
  requests, and evicting the mesh releases all of it.  The warm-vs-cold
  service latency gap (``server.miss_ms_p50`` against
  ``server.hit_ms_p50`` in the end-to-end benchmark) and the "zero
  re-plans on the second identical campaign" assertion (``plan.builds``
  counter) both hang off this cache.
* :class:`ResultCache` -- request ``content_key`` -> finished response
  payload, stored as canonical JSON bytes **with a sha256 digest**.
  Every read re-verifies the digest; a mismatch (bit rot, or the
  ``server_cache`` fault injecting one) evicts the entry, counts
  ``server.cache.poison_detected``, and reports a miss -- the server
  recomputes rather than serving a poisoned result.

Both are bounded LRU and thread-safe (jobs run in executor threads while
the asyncio loop reads ``/stats``).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..obs.metrics import get_registry
from .protocol import MeshSpec, canonical_json, sha256_hex

__all__ = ["MeshCache", "ResultCache"]


class MeshCache:
    """Bounded LRU of built meshes, keyed by the mesh spec's content."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._meshes: "OrderedDict[str, Any]" = OrderedDict()

    @staticmethod
    def key(spec: MeshSpec) -> str:
        return sha256_hex(canonical_json(spec.to_dict()))

    def get(self, spec: MeshSpec):
        """The (possibly cached) :class:`~repro.fem.mesh.TetMesh` for
        ``spec``; builds and caches on miss."""
        key = self.key(spec)
        registry = get_registry()
        with self._lock:
            mesh = self._meshes.get(key)
            if mesh is not None:
                self._meshes.move_to_end(key)
                registry.counter("server.cache.mesh_hits").inc()
                return mesh
        # build outside the lock: meshgen is pure and deterministic, so a
        # racing duplicate build is wasted work, not wrong work.
        from ..fem.meshgen import box_tet_mesh

        mesh = box_tet_mesh(spec.nx, spec.ny, spec.nz, lengths=spec.lengths)
        with self._lock:
            if key in self._meshes:
                self._meshes.move_to_end(key)
                return self._meshes[key]
            self._meshes[key] = mesh
            while len(self._meshes) > self.max_entries:
                self._meshes.popitem(last=False)
        registry.counter("server.cache.mesh_misses").inc()
        return mesh

    def __len__(self) -> int:
        with self._lock:
            return len(self._meshes)


class ResultCache:
    """Bounded LRU of finished result payloads with digest verification."""

    def __init__(
        self,
        max_entries: int = 64,
        fault_plan=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.fault_plan = fault_plan
        self._lock = threading.Lock()
        # content_key -> (payload_bytes, digest)
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()

    def put(self, content_key: str, payload: Dict[str, Any]) -> None:
        blob = canonical_json(payload)
        digest = sha256_hex(blob)
        with self._lock:
            self._entries[content_key] = (blob, digest)
            self._entries.move_to_end(content_key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def get(self, content_key: str) -> Optional[Dict[str, Any]]:
        """The cached payload, or ``None`` on miss / detected poison.

        The stored blob is digest-checked on *every* read; the
        ``server_cache`` fault site garbles the blob between store and
        check, so chaos runs prove the poison path evicts and recomputes
        instead of serving garbage.
        """
        registry = get_registry()
        with self._lock:
            entry = self._entries.get(content_key)
            if entry is not None:
                self._entries.move_to_end(content_key)
        if entry is None:
            registry.counter("server.cache.result_misses").inc()
            return None
        blob, digest = entry
        if self.fault_plan is not None:
            blob, _ = self.fault_plan.corrupt_bytes("server_cache", blob)
        if sha256_hex(blob) != digest:
            with self._lock:
                self._entries.pop(content_key, None)
            registry.counter("server.cache.poison_detected").inc()
            registry.counter("server.cache.result_misses").inc()
            return None
        registry.counter("server.cache.result_hits").inc()
        return json.loads(blob.decode("utf-8"))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
