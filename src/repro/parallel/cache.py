"""Content-addressed result stores for sweep points, keyed by task key.

:class:`ResultStore` is the backend interface: a mapping from task key
to one completed point payload, with hit/miss/write accounting.  Because
the task key already encodes the workload spec, both configs and
:data:`~repro.parallel.taskkey.CODE_SCHEMA_VERSION`, a store can be
shared freely across sweeps, branches, machines, and service tenants: a
stale or incompatible entry is unreachable by construction, not filtered
at read time.

:class:`ResultCache` is the local-disk backend — one JSON file per
completed point, named ``<task_key>.json`` under the store root.  Writes
are atomic (temp file + ``os.replace``) so a killed sweep never leaves a
torn entry; reads validate the payload's schema and embedded
``task_key`` and treat anything unreadable, foreign, or mismatched as a
miss (the point simply re-runs).  Further backends (in-memory for tests,
remote object stores later) subclass :class:`ResultStore` — see
:mod:`repro.serve.store`.
"""

from __future__ import annotations

import json
import os
import tempfile
from abc import ABC, abstractmethod
from typing import Any, Dict, Optional, Tuple

from repro.schemas import schema_string

#: Schema of one cached/returned sweep-point payload.
POINT_SCHEMA = schema_string("repro.sweep.point", 1)


class ResultStore(ABC):
    """Content-addressed store of completed sweep-point payloads.

    The contract every backend must keep:

    * :meth:`read` returns the exact payload :meth:`put` stored (payloads
      are already JSON-round-trip normalised by the worker, so identity
      is byte-level after ``json.dumps(..., sort_keys=True)``);
    * anything unreadable, foreign, or mismatched reads as a miss —
      never an error — so a shared store can hold torn or alien entries
      without poisoning a sweep;
    * :meth:`put` validates that the payload's embedded ``task_key``
      matches the store key (the content-addressing invariant);
    * ``hits`` / ``misses`` / ``writes`` / ``invalid`` counters are
      maintained for observability.  Only :meth:`get` and :meth:`put`
      count; :meth:`read` and membership tests never write a counter, so
      API reads on another thread cannot lose or repeat an increment.
    """

    hits: int
    misses: int
    writes: int
    invalid: int

    @abstractmethod
    def read(self, key: str) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Uncounted lookup: ``(payload, invalid)``.

        ``payload`` is ``None`` on a miss; ``invalid`` is true when an
        entry exists but is unreadable, foreign, or mismatched (which
        also reads as a miss).
        """

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on miss (counted)."""
        payload, invalid = self.read(key)
        if invalid:
            self.invalid += 1
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    @abstractmethod
    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (atomically, if durable)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of entries currently in the store."""

    def __contains__(self, key: str) -> bool:
        """Membership without touching the hit/miss counters."""
        return self.read(key)[0] is not None

    @staticmethod
    def check_key(key: str, payload: Dict[str, Any]) -> None:
        """Enforce the content-addressing invariant on a write."""
        if payload.get("task_key") != key:
            raise ValueError(f"payload task_key {payload.get('task_key')!r} "
                             f"does not match store key {key!r}")

    @staticmethod
    def validated(key: str, payload: Any,
                  ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """A :meth:`read` result for a decoded entry: foreign-schema or
        mismatched entries read as invalid misses."""
        if (not isinstance(payload, dict)
                or payload.get("schema") != POINT_SCHEMA
                or payload.get("task_key") != key):
            return None, True
        return payload, False


class ResultCache(ResultStore):
    """Directory of ``<task_key>.json`` point payloads (disk backend)."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalid = 0  # unreadable or mismatched entries seen

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def read(self, key: str) -> Tuple[Optional[Dict[str, Any]], bool]:
        """The cached payload for ``key`` (see :meth:`ResultStore.read`).

        Corrupt or mismatched files read as invalid misses (and are left
        in place for post-mortems; a re-run overwrites them atomically).
        """
        path = self.path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None, os.path.exists(path)
        return self.validated(key, payload)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key``."""
        self.check_key(key, payload)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))
