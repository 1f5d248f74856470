"""Simulation-as-a-service on top of the parallel sweep engine.

``repro serve`` turns the sweep pipeline into a long-lived HTTP service:
clients POST declarative grids, a journaled job queue shards them across
the existing :class:`~repro.parallel.SweepRunner` worker pools with
fair scheduling across tenants, and results land in a pluggable
content-addressed :class:`~repro.parallel.ResultStore` shared with the
CLI — so served artifacts are byte-identical to ``repro sweep`` outputs
for the same grid.

Layers (each importable and testable on its own):

* :mod:`repro.serve.gridspec` — declarative grid requests, validation,
  canonical specs, deterministic job ids,
* :mod:`repro.serve.jobs` — the journaled job queue
  (``repro.serve.job/1``) with crash recovery,
* :mod:`repro.serve.scheduler` — tenant-fair round-robin,
* :mod:`repro.serve.store` — result-store backends and the factory,
* :mod:`repro.serve.service` — the transport-agnostic service core,
* :mod:`repro.serve.http` — the zero-dependency asyncio HTTP front end.

Nothing here is imported by default CLI paths — ``repro serve`` defers
the import, keeping every other subcommand at zero added cost (pinned
by the subprocess import tests).  See ``docs/service.md`` for the API
and operations guide.
"""

from repro.serve.gridspec import (
    GridSpecError,
    normalise_spec,
    spec_job_id,
    spec_tasks,
)
from repro.serve.jobs import JOB_SCHEMA, Job, JobQueue
from repro.serve.scheduler import FairScheduler
from repro.serve.service import (
    JobNotSettledError,
    ServiceConfig,
    SweepService,
)
from repro.serve.store import MemoryResultStore, make_store, store_stats

__all__ = [
    "GridSpecError",
    "normalise_spec",
    "spec_job_id",
    "spec_tasks",
    "JOB_SCHEMA",
    "Job",
    "JobQueue",
    "FairScheduler",
    "JobNotSettledError",
    "ServiceConfig",
    "SweepService",
    "MemoryResultStore",
    "make_store",
    "store_stats",
]
