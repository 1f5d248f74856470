"""Fair scheduling for the sweep service.

:class:`FairScheduler` is round-robin *across tenants*, FIFO within a
tenant.  The dispatcher runs one shard (``shard_size`` tasks) of the
chosen job per turn, so a tenant with a 10 000-point grid cannot starve
a tenant with a 4-point grid: after each shard the big job goes to the
back of its tenant's queue and the next tenant gets a turn.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional


class FairScheduler:
    """Round-robin over tenants; FIFO job order within each tenant."""

    def __init__(self) -> None:
        # Tenant iteration order is insertion order; _turn rotates it.
        self._queues: "OrderedDict[str, Deque[str]]" = OrderedDict()
        self._turn: Deque[str] = deque()
        self._enqueued: Dict[str, str] = {}  # job_id -> tenant

    def enqueue(self, tenant: str, job_id: str) -> None:
        """Add a job to its tenant's queue (no-op if already queued)."""
        if job_id in self._enqueued:
            return
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._turn.append(tenant)
        self._queues[tenant].append(job_id)
        self._enqueued[job_id] = tenant

    def next_job(self) -> Optional[str]:
        """Pop the next job to run a shard of, rotating tenants."""
        for _ in range(len(self._turn)):
            tenant = self._turn[0]
            self._turn.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                job_id = queue.popleft()
                del self._enqueued[job_id]
                return job_id
        return None

    def requeue(self, tenant: str, job_id: str) -> None:
        """Put a partially-run job at the *back* of its tenant's queue
        (its shard just ran; other jobs of the tenant go first)."""
        self.enqueue(tenant, job_id)

    def __len__(self) -> int:
        return len(self._enqueued)
