"""Deterministic identity for sweep points (the task-key contract).

Every simulation a sweep runs — a (workload, machine, mechanism-config)
point — is identified by a **task key**: the SHA-256 of a canonical JSON
rendering of everything that determines the simulation's outcome:

* the workload spec (including its generator ``seed``) and trace length,
* the task kind (``baseline`` / ``ssmt`` / ``oracle`` / ``potential``),
* the full :class:`~repro.core.ssmt.SSMTConfig` (or
  :class:`~repro.core.oracle.PotentialConfig`) when one applies,
* the full :class:`~repro.uarch.config.MachineConfig`,
* the :class:`~repro.branch.zoo.config.PredictorConfig` when the point
  runs a zoo baseline predictor (``None`` = the paper's hybrid), and
* :data:`CODE_SCHEMA_VERSION`.

Two tasks with equal keys produce bit-identical result payloads, so a
key can safely index an on-disk result cache
(:class:`~repro.parallel.cache.ResultCache`): re-running a sweep skips
every point whose key is already cached.  The display ``label`` is
deliberately **excluded** — it names a grid column, not a simulation —
so two grids that run the same point under different labels share one
cache entry.

:data:`CODE_SCHEMA_VERSION` must be bumped whenever simulator semantics
change (timing model, workload generator, mechanism behaviour, or the
result payload layout), invalidating every previously cached result at
once.  See ``docs/telemetry.md`` ("Parallel sweeps").
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.oracle import PotentialConfig
from repro.core.ssmt import SSMTConfig
from repro.uarch.config import TABLE3_BASELINE, MachineConfig

if TYPE_CHECKING:  # pragma: no cover — keeps repro.branch.zoo unimported
    from repro.branch.zoo.config import PredictorConfig

# Re-exported from their canonical (leaf) home so the many existing
# importers of ``taskkey.CODE_SCHEMA_VERSION`` keep working, and so the
# task-key module remains the one-stop shop for cache-identity rules.
# SCHEMA_REGISTRY maps schema name -> version -> owning module; every
# artifact module imports its schema marker from it (``repro lint``
# rule LINT020 rejects stray literals).
from repro.schemas import (  # noqa: F401  (re-exports)
    CODE_SCHEMA_VERSION,
    SCHEMA_REGISTRY,
    schema_string,
)

#: Simulations a sweep point can request.
TASK_KINDS = ("baseline", "ssmt", "oracle", "potential")

def _jsonable(value: Any) -> Any:
    """Recursively convert dataclasses / enums / tuples to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json(payload: Any) -> str:
    """The canonical rendering task keys are hashed over: sorted keys,
    no whitespace, enums by name, tuples as arrays."""
    return json.dumps(_jsonable(payload), sort_keys=True,
                      separators=(",", ":"))


@dataclass(frozen=True)
class SweepTask:
    """One simulation of a sweep grid.

    ``kind`` selects the worker behaviour:

    * ``baseline`` — the Table 3 machine with the hardware hybrid
      predictor, no mechanism (the speed-up denominator),
    * ``ssmt`` — the full dynamic mechanism under ``config``,
    * ``oracle`` — perfect direction/target prediction (§1 headroom),
    * ``potential`` — Figure 6's oracle difficult-path prediction under
      ``potential``.
    """

    benchmark: str
    instructions: int
    kind: str = "ssmt"
    #: display/grouping name for the grid column; NOT part of the key
    label: str = ""
    config: Optional[SSMTConfig] = None
    potential: Optional[PotentialConfig] = None
    machine: MachineConfig = TABLE3_BASELINE
    #: zoo baseline direction predictor; ``None`` is the paper's hybrid
    #: (the default path never imports :mod:`repro.branch.zoo`)
    predictor: Optional["PredictorConfig"] = None
    #: the task key, computed once in ``__post_init__``; a task is a
    #: value, so it never goes stale (see :attr:`key`)
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; "
                             f"expected one of {TASK_KINDS}")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        if self.kind == "ssmt" and self.config is None:
            object.__setattr__(self, "config", SSMTConfig())
        if self.kind == "potential" and self.potential is None:
            object.__setattr__(self, "potential", PotentialConfig())
        if self.predictor is not None:
            if self.kind == "oracle":
                # Oracle direction prediction ignores the hardware
                # predictor; normalising to None keeps the task key (and
                # the cache entry) shared across baselines.
                object.__setattr__(self, "predictor", None)
            elif not (dataclasses.is_dataclass(self.predictor)
                      and not isinstance(self.predictor, type)):
                raise ValueError("predictor must be a PredictorConfig "
                                 "instance (or None for the paper hybrid)")
        if not self.label:
            object.__setattr__(self, "label", self.kind)
        object.__setattr__(self, "_key", task_key(self))

    def identity(self) -> Dict[str, Any]:
        """Everything that determines the simulation outcome."""
        from repro.workloads import benchmark_spec

        return {
            "schema_version": CODE_SCHEMA_VERSION,
            "kind": self.kind,
            "benchmark": self.benchmark,
            "workload_spec": _jsonable(benchmark_spec(self.benchmark)),
            "instructions": self.instructions,
            "config": _jsonable(self.config),
            "potential": _jsonable(self.potential),
            "machine": _jsonable(self.machine),
            "predictor": _jsonable(self.predictor),
            # A constant: every on-disk cache and pinned key hashes it.
            "sample": None,
        }

    @property
    def key(self) -> str:
        """The stable task key (SHA-256 hex of the canonical identity).

        Fixed when the task is constructed: derive variants with
        :func:`dataclasses.replace`, which builds (and keys) a new task,
        and never mutate a config object after handing it to a task.
        """
        return self._key


def task_key(task: SweepTask) -> str:
    """Compute a :class:`SweepTask`'s deterministic cache key.

    :meth:`SweepTask.identity` is already JSON-typed, so it is rendered
    in one pass — the same bytes :func:`canonical_json` would produce.
    """
    blob = json.dumps(task.identity(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
