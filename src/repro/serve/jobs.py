"""Persistent job queue with a JSONL journal (``repro.serve.job/1``).

A *job* is one submitted grid: a canonical spec (see
:mod:`repro.serve.gridspec`), the task keys it expands to, and a state
per task.  The queue journals every transition to an append-only JSONL
file, so a server that dies mid-grid resumes idempotently:

* on boot the journal is replayed into the in-memory job table;
* tasks that were ``running`` when the process died revert to
  ``queued`` (the worker is gone; the simulation is deterministic, so
  re-running is always safe);
* tasks whose results already landed in the content-addressed store are
  cache hits when their shard re-runs — nothing is simulated twice.

This is the journaled generalisation of the sweep runner's bounded
pool-rebuild logic: the runner still rebuilds crashed pools *within* a
shard, and the queue replays *across* process lifetimes.

Journal layout (one JSON object per line)::

    {"schema": "repro.serve.job/1", "ev": "header"}
    {"ev": "submit", "job": id, "tenant": t, "spec": {...},
     "tasks": [key, ...]}
    {"ev": "task", "job": id, "key": key,
     "state": "running" | "done" | "failed", "reason": ...}
    {"ev": "job", "job": id, "state": "done" | "failed"}

Unknown or torn trailing lines are skipped on replay (a crash mid-append
must not brick the queue).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.schemas import schema_string

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.taskkey import SweepTask

#: Schema marker carried by the journal's header line.
JOB_SCHEMA = schema_string("repro.serve.job", 1)

#: Per-task lifecycle within a job.
TASK_STATES = ("queued", "running", "done", "failed")

#: Job lifecycle; a job is ``running`` from submit until every task
#: resolved.
JOB_STATES = ("running", "done", "failed")


@dataclass
class Job:
    """One submitted grid and its per-task progress."""

    job_id: str
    tenant: str
    spec: Dict[str, Any]
    task_keys: List[str]            # unique keys, first-seen grid order
    state: str = "running"
    task_states: Dict[str, str] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)  # key -> reason
    #: the spec expanded into tasks, grid order; in memory only (never
    #: journaled), filled by the service at submit or on first use
    tasks: Optional[List["SweepTask"]] = field(default=None, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        for key in self.task_keys:
            self.task_states.setdefault(key, "queued")

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in TASK_STATES}
        for state in self.task_states.values():
            out[state] += 1
        return out

    def pending_keys(self) -> List[str]:
        return [key for key in self.task_keys
                if self.task_states[key] == "queued"]

    def settled(self) -> bool:
        return all(state in ("done", "failed")
                   for state in self.task_states.values())

    def as_dict(self) -> Dict[str, Any]:
        counts = self.counts()
        return {
            "job": self.job_id,
            "state": self.state,
            "tenant": self.tenant,
            "spec": self.spec,
            "tasks": dict(self.task_states),
            "counts": counts,
            "total_tasks": len(self.task_keys),
            "failures": dict(self.failures),
        }


class JobQueue:
    """Journal-backed job table; see module docstring.

    Thread-safety is the caller's concern: :class:`~repro.serve.service.
    SweepService` serialises every mutation behind its own lock, which
    also keeps journal appends ordered.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.journal_path = os.path.join(root, "journal.jsonl")
        self.jobs: Dict[str, Job] = {}
        self.recovered_tasks = 0   # running -> queued reverts at boot
        self._replay()
        if not os.path.exists(self.journal_path):
            self._append({"schema": JOB_SCHEMA, "ev": "header"})

    # -- journal ------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")

    def _replay(self) -> None:
        try:
            with open(self.journal_path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn trailing write; skip
            if not isinstance(record, dict):
                continue
            self._apply(record)
        # Worker loss: anything still "running" had no process finishing
        # it — revert to queued so the dispatcher re-runs it (the store
        # turns already-completed work into cache hits).
        for job in self.jobs.values():
            for key, state in job.task_states.items():
                if state == "running":
                    job.task_states[key] = "queued"
                    self.recovered_tasks += 1

    def _apply(self, record: Dict[str, Any]) -> None:
        ev = record.get("ev")
        if ev == "submit":
            job_id = record.get("job")
            tasks = record.get("tasks")
            spec = record.get("spec")
            if (isinstance(job_id, str) and isinstance(tasks, list)
                    and isinstance(spec, dict)):
                self.jobs[job_id] = Job(
                    job_id=job_id, tenant=record.get("tenant", "public"),
                    spec=spec, task_keys=list(tasks))
        elif ev == "task":
            job = self.jobs.get(record.get("job", ""))
            key = record.get("key")
            state = record.get("state")
            if job is not None and key in job.task_states \
                    and state in TASK_STATES:
                job.task_states[key] = state
                if state == "failed":
                    job.failures[key] = str(record.get("reason", ""))
                elif key in job.failures:
                    del job.failures[key]
        elif ev == "job":
            job = self.jobs.get(record.get("job", ""))
            state = record.get("state")
            if job is not None and state in JOB_STATES:
                job.state = state

    # -- mutations ----------------------------------------------------------

    def submit(self, job_id: str, tenant: str, spec: Dict[str, Any],
               task_keys: List[str]) -> Tuple[Job, bool]:
        """Register a job; returns ``(job, created)``.

        An already-known job id (same grid, re-submitted) attaches to
        the existing job — the dedup that makes concurrent identical
        submissions share one execution.
        """
        existing = self.jobs.get(job_id)
        if existing is not None:
            return existing, False
        job = Job(job_id=job_id, tenant=tenant, spec=spec,
                  task_keys=list(task_keys))
        self.jobs[job_id] = job
        self._append({"ev": "submit", "job": job_id, "tenant": tenant,
                      "spec": spec, "tasks": list(task_keys)})
        return job, True

    def mark_task(self, job_id: str, key: str, state: str,
                  reason: Optional[str] = None) -> None:
        job = self.jobs[job_id]
        if state not in TASK_STATES:
            raise ValueError(f"unknown task state {state!r}")
        job.task_states[key] = state
        record: Dict[str, Any] = {"ev": "task", "job": job_id, "key": key,
                                  "state": state}
        if state == "failed":
            job.failures[key] = reason or "unknown failure"
            record["reason"] = job.failures[key]
        elif key in job.failures:
            del job.failures[key]
        self._append(record)

    def mark_job(self, job_id: str, state: str) -> None:
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        self.jobs[job_id].state = state
        self._append({"ev": "job", "job": job_id, "state": state})

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def incomplete(self) -> List[Job]:
        """Jobs that still owe work, in journal (submission) order."""
        return [job for job in self.jobs.values()
                if job.state == "running" and not job.settled()]

    def stats(self) -> Dict[str, int]:
        counts = {state: 0 for state in TASK_STATES}
        for job in self.jobs.values():
            for state in job.task_states.values():
                counts[state] += 1
        return {
            "jobs": len(self.jobs),
            "jobs_running": sum(1 for j in self.jobs.values()
                                if j.state == "running"),
            "jobs_done": sum(1 for j in self.jobs.values()
                             if j.state == "done"),
            "jobs_failed": sum(1 for j in self.jobs.values()
                               if j.state == "failed"),
            "tasks_queued": counts["queued"],
            "tasks_running": counts["running"],
            "tasks_done": counts["done"],
            "tasks_failed": counts["failed"],
            "recovered_tasks": self.recovered_tasks,
        }
