"""Result-store backends beyond the local-disk cache.

The backend interface is :class:`repro.parallel.cache.ResultStore`;
the sweep runner, the service, and the CLI all speak it.  This module
adds the non-disk backends and the factory that picks one from a
configuration string:

* ``mem://`` — :class:`MemoryResultStore`, an in-process dict.  Results
  die with the server; useful for tests and for throwaway servers whose
  durability comes from the job journal instead.
* anything else — a filesystem path for the battle-tested
  :class:`~repro.parallel.cache.ResultCache` disk backend.

Remote object stores (the "million users" direction in the ROADMAP)
slot in here later: subclass :class:`ResultStore`, keep the
miss-never-error contract, add a URL scheme to :func:`make_store`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.parallel.cache import ResultCache, ResultStore


class MemoryResultStore(ResultStore):
    """In-process content-addressed store (no durability, no I/O)."""

    def __init__(self) -> None:
        self._data: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalid = 0

    def read(self, key: str) -> Tuple[Optional[Dict[str, Any]], bool]:
        payload = self._data.get(key)
        if payload is None:
            return None, False
        # Same contract as the disk backend: foreign or mismatched
        # entries read as misses, never as errors.
        return self.validated(key, payload)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        self.check_key(key, payload)
        self._data[key] = payload
        self.writes += 1

    def __len__(self) -> int:
        return len(self._data)


def make_store(spec: str) -> ResultStore:
    """A store from a configuration string: ``mem://`` or a disk path."""
    if spec == "mem://":
        return MemoryResultStore()
    if "://" in spec:
        raise ValueError(f"unknown result-store scheme {spec!r} "
                         f"(supported: 'mem://' or a directory path)")
    return ResultCache(spec)


def store_stats(store: ResultStore) -> Dict[str, int]:
    """The observability counters every backend maintains."""
    return {
        "entries": len(store),
        "hits": store.hits,
        "misses": store.misses,
        "writes": store.writes,
        "invalid": store.invalid,
    }
