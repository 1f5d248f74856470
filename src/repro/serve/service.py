"""The sweep service core: queue + scheduler + store + runner, no HTTP.

:class:`SweepService` is the transport-agnostic engine behind the
``repro serve`` API.  The HTTP layer (:mod:`repro.serve.http`) is a thin
adapter over these methods, and the test suite drives the service
directly — failure-path behaviour is pinned down without sockets.

Execution model
---------------

One dispatcher thread runs :meth:`step` in a loop.  Each step takes the
next job from the :class:`~repro.serve.scheduler.FairScheduler`, slices
off one *shard* (``shard_size`` pending tasks), and runs it through a
:class:`~repro.parallel.SweepRunner` wired to the shared
:class:`~repro.parallel.ResultStore`.  Sharding is what makes the
round-robin fair: a giant grid yields the dispatcher back after every
shard instead of monopolising it.

Durability splits in two, by design:

* the **journal** (:class:`~repro.serve.jobs.JobQueue`) is authoritative
  for task *states* — it survives crashes and drives resume;
* the **store** is authoritative for task *results* — content-addressed
  by the same keys ``repro sweep`` uses, so the service and the CLI
  share a cache, and a re-run shard turns completed work into hits.

The per-job event feeds (:meth:`events_since`) are advisory streaming
telemetry in the ``repro.obs`` style: cache hits, dispatches,
completions, heartbeats, stalls, rebuilds.  They are held in memory
only; clients that reconnect after a server restart re-read job *status*
from the journal, not the stream.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel.cache import ResultStore
from repro.parallel.runner import SweepRunner
from repro.parallel.sweep import merge_sweep
from repro.parallel.taskkey import SweepTask
from repro.serve.gridspec import normalise_spec, spec_job_id, spec_tasks
from repro.serve.jobs import Job, JobQueue
from repro.serve.scheduler import FairScheduler, TokenBucket
from repro.serve.store import store_stats

#: Cap on buffered stream events per job (oldest dropped first); status
#: and results are journal/store-backed, so the stream may be lossy.
MAX_EVENTS_PER_JOB = 10_000


class RateLimitError(Exception):
    """Tenant exceeded its submit rate; rendered as HTTP 429."""

    def __init__(self, tenant: str):
        super().__init__(f"tenant {tenant!r} exceeded its submit rate")
        self.tenant = tenant


@dataclass
class ServiceConfig:
    """Operator knobs; defaults suit a small local deployment."""

    jobs: Optional[int] = None    # SweepRunner workers per shard
                                  # (None: $REPRO_JOBS or serial)
    shard_size: int = 8           # tasks per scheduler turn
    heartbeat: float = 2.0        # stream heartbeat interval (seconds)
    rate: float = 0.0             # submits/second/tenant (0 = unlimited)
    burst: int = 10               # rate-limit burst size
    max_instructions: Optional[int] = None  # per-point cap (None = off)
    resume: bool = True           # read the store before simulating
    task_timeout: Optional[float] = None
    max_retries: int = 1


class _ShardObserver:
    """Duck-typed SweepRunner observer → per-job stream events."""

    def __init__(self, service: "SweepService", job_id: str,
                 heartbeat_interval: float):
        self._service = service
        self._job_id = job_id
        self.heartbeat_interval = heartbeat_interval

    def _emit(self, ev: str, **payload: Any) -> None:
        self._service._emit(self._job_id, dict(payload, ev=ev))

    def on_cache_hit(self, task: SweepTask) -> None:
        self._emit("cache_hit", key=task.key, label=task.label)

    def on_cache_miss(self, task: SweepTask) -> None:
        self._emit("cache_miss", key=task.key, label=task.label)

    def on_dispatch(self, task: SweepTask) -> None:
        self._emit("dispatch", key=task.key, label=task.label)

    def on_task_done(self, task: SweepTask) -> None:
        self._emit("task_done", key=task.key, label=task.label)

    def on_task_failed(self, task: SweepTask, reason: str) -> None:
        self._emit("task_failed", key=task.key, label=task.label,
                   reason=reason)

    def on_heartbeat(self, done: int, total: int, inflight: int,
                     waited: float) -> None:
        self._emit("heartbeat", done=done, total=total, inflight=inflight,
                   waited=round(waited, 3))

    def on_stall(self, keys: List[str], timeout: Optional[float]) -> None:
        self._emit("stall", keys=list(keys), timeout=timeout)

    def on_rebuild(self, count: int) -> None:
        self._emit("rebuild", count=count)


class SweepService:
    """Queue-backed sweep execution; see module docstring."""

    def __init__(self, queue_dir: str, store: ResultStore,
                 config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = store
        self.queue = JobQueue(queue_dir)
        self.scheduler = FairScheduler()
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._event_seq: Dict[str, int] = {}
        self._event_cond = threading.Condition(self._lock)
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.shards_run = 0
        # Crash recovery: journal replay already reverted orphaned
        # "running" tasks to queued; put every unfinished job back on
        # the schedule so the dispatcher resumes them.
        for job in self.queue.incomplete():
            self.scheduler.enqueue(job.tenant, job.job_id)

    # -- events ---------------------------------------------------------------

    def _emit(self, job_id: str, event: Dict[str, Any]) -> None:
        with self._event_cond:
            seq = self._event_seq.get(job_id, 0) + 1
            self._event_seq[job_id] = seq
            feed = self._events.setdefault(job_id, [])
            feed.append(dict(event, seq=seq))
            if len(feed) > MAX_EVENTS_PER_JOB:
                del feed[: len(feed) - MAX_EVENTS_PER_JOB]
            self._event_cond.notify_all()

    def events_since(self, job_id: str, after: int,
                     timeout: float) -> Tuple[List[Dict[str, Any]], bool]:
        """Stream events with ``seq > after``; blocks up to ``timeout``.

        Returns ``(events, settled)`` where ``settled`` tells streaming
        clients the job finished and no further events will arrive.
        An empty event list after the wait means "nothing new yet" —
        the HTTP layer turns that into a stream heartbeat line.
        """
        deadline = time.monotonic() + timeout
        with self._event_cond:
            while True:
                fresh = [e for e in self._events.get(job_id, ())
                         if e["seq"] > after]
                job = self.queue.get(job_id)
                settled = job is not None and job.state != "running"
                if fresh or settled:
                    return fresh, settled and not fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._event_cond.wait(remaining)

    # -- API surface ----------------------------------------------------------

    def submit(self, payload: Any, tenant: str = "public",
               now: Optional[float] = None) -> Dict[str, Any]:
        """Validate and enqueue a grid; idempotent per canonical spec.

        Order matters and is load-bearing for the failure-path tests:
        rate limit first (cheap, per-tenant), then validation (a 4xx
        must not touch the queue or journal), then the dedup-or-create
        against the job table.
        """
        clock = time.monotonic() if now is None else now
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.config.rate, self.config.burst)
                self._buckets[tenant] = bucket
            if not bucket.try_take(clock):
                raise RateLimitError(tenant)

        spec = normalise_spec(payload,
                              max_instructions=self.config.max_instructions)
        job_id = spec_job_id(spec)
        with self._lock:
            known = self.queue.get(job_id)
        # A resubmitted grid reuses its job's expansion.
        tasks = known.tasks if known is not None else None
        if tasks is None:
            tasks = spec_tasks(spec)
        keys = list(dict.fromkeys(task.key for task in tasks))

        with self._lock:
            job, created = self.queue.submit(job_id, tenant, spec, keys)
            if job.tasks is None:
                job.tasks = tasks
            if job.state == "running" and job.pending_keys():
                self.scheduler.enqueue(job.tenant, job_id)
        if created:
            self._emit(job_id, {"ev": "job_submitted", "tenant": tenant,
                                "tasks": len(keys)})
        self._wake.set()
        return {
            "job": job_id,
            "created": created,
            "state": job.state,
            "total_tasks": len(job.task_keys),
            "grid_points": len(tasks),
        }

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self.queue.get(job_id)
            return None if job is None else job.as_dict()

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The merged ``repro.sweep/1`` artifact for a settled job.

        Raises :class:`JobNotSettledError` while work is pending (HTTP
        409); returns ``None`` for unknown jobs.  Points are re-read
        from the store in grid order and merged through the same
        :func:`~repro.parallel.sweep.merge_sweep` the CLI uses — byte
        identity with ``repro sweep`` outside ``context`` follows.
        """
        with self._lock:
            job = self.queue.get(job_id)
        if job is None:
            return None
        if job.state == "running":
            raise JobNotSettledError(job_id, job.counts())
        tasks = self._tasks(job)
        results: List[Optional[Dict[str, Any]]] = []
        for task in tasks:
            payload = self._peek(task.key)
            results.append(None if payload is None
                           else dict(payload, label=task.label))
        context = {
            "source": "repro.serve",
            "job": job_id,
            "spec": job.spec,
            "grid_points": len(tasks),
            "counts": job.counts(),
        }
        return merge_sweep(results, context=context, errors=job.failures)

    def task(self, key: str) -> Optional[Dict[str, Any]]:
        """Content-addressed point lookup straight from the store."""
        return self._peek(key)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            queue_stats = self.queue.stats()
            scheduled = len(self.scheduler)
        return {
            "store": store_stats(self.store),
            "queue": queue_stats,
            "scheduled_jobs": scheduled,
            "shards_run": self.shards_run,
        }

    def _tasks(self, job: Job) -> List[SweepTask]:
        """The job's grid as tasks, expanded once per process: at
        submit, or on first use of a job replayed from the journal
        (which stores only the spec and keys).  Concurrent first uses
        may both expand; they build equal lists."""
        if job.tasks is None:
            job.tasks = spec_tasks(job.spec)
        return job.tasks

    def _peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Read a payload without perturbing the store's hit/miss
        counters — API reads are not cache traffic, and the loadtest
        derives hit rates from counter deltas."""
        return self.store.read(key)[0]

    # -- dispatcher -----------------------------------------------------------

    def step(self) -> bool:
        """Run one shard of the next scheduled job; False when idle."""
        with self._lock:
            job_id = self.scheduler.next_job()
            if job_id is None:
                return False
            job = self.queue.jobs[job_id]
            pending = job.pending_keys()
            shard_keys = pending[: self.config.shard_size]
            for key in shard_keys:
                self.queue.mark_task(job_id, key, "running")
        if not shard_keys:
            self._finish(job)
            return True

        by_key: Dict[str, SweepTask] = {}
        for task in self._tasks(job):
            by_key.setdefault(task.key, task)
        shard = [by_key[key] for key in shard_keys]

        observer = _ShardObserver(self, job_id, self.config.heartbeat)
        runner = SweepRunner(jobs=self.config.jobs,
                             cache=self.store,
                             resume=self.config.resume,
                             task_timeout=self.config.task_timeout,
                             max_retries=self.config.max_retries,
                             observer=observer)
        outcome = runner.run(shard)

        with self._lock:
            for task, payload in zip(shard, outcome.results):
                if payload is not None:
                    self.queue.mark_task(job_id, task.key, "done")
                else:
                    reason = outcome.errors.get(
                        task.key,
                        outcome.errors.get("__pool__", "no result"))
                    self.queue.mark_task(job_id, task.key, "failed", reason)
            self.shards_run += 1
            remaining = bool(job.pending_keys())
            if remaining:
                self.scheduler.requeue(job.tenant, job_id)
        self._emit(job_id, {"ev": "shard_done",
                            "shard_tasks": len(shard),
                            "simulated": outcome.simulated,
                            "cache_hits": outcome.cache_hits,
                            "failures": outcome.failures})
        if not remaining:
            self._finish(job)
        return True

    def _finish(self, job: Job) -> None:
        if not job.settled():
            # Defensive: should not happen with a single dispatcher.
            with self._lock:
                self.scheduler.requeue(job.tenant, job.job_id)
            return
        state = "failed" if job.failures else "done"
        # Emit before flipping the job state: streamers treat a settled
        # job as end-of-stream, so the terminal event must already be
        # in the feed when they observe the flip.
        self._emit(job.job_id, {"ev": "job_" + state,
                                "counts": job.counts()})
        with self._event_cond:
            if job.state == "running":
                self.queue.mark_job(job.job_id, state)
            self._event_cond.notify_all()

    def drain(self) -> int:
        """Run steps until idle; returns shards run.  Test/CLI helper —
        the server uses the background dispatcher instead."""
        shards = 0
        while self.step():
            shards += 1
        return shards

    # -- background dispatcher ------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-dispatcher",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self.step():
                self._wake.wait(timeout=0.2)
                self._wake.clear()


class JobNotSettledError(Exception):
    """Result requested for a job that still owes work (HTTP 409)."""

    def __init__(self, job_id: str, counts: Dict[str, int]):
        super().__init__(f"job {job_id} still running: {counts}")
        self.job_id = job_id
        self.counts = counts
