"""The sweep service core: gridspec, queue, scheduler, store, service.

Everything here drives :class:`repro.serve.SweepService` directly (no
sockets) — the HTTP layer has its own tests.  The properties pinned
down:

* submit validation is strict and **rejections never touch the queue**;
* identical grids dedup onto one job (including under concurrency);
* served results are byte-identical to the local runner pipeline;
* worker loss mid-grid resumes idempotently from the journal, with
  already-stored points served as cache hits rather than re-simulated;
* fair scheduling interleaves tenants shard-by-shard.
"""

import json
import threading

import pytest

from repro.parallel import SweepRunner, merge_sweep
from repro.parallel.cache import POINT_SCHEMA
from repro.parallel.taskkey import canonical_json
from repro.serve import (
    GridSpecError,
    JobNotSettledError,
    JobQueue,
    MemoryResultStore,
    ServiceConfig,
    SweepService,
    make_store,
    normalise_spec,
    spec_job_id,
    spec_tasks,
    store_stats,
)
from repro.serve.scheduler import FairScheduler

SMALL = {"benchmarks": ["comp"], "instructions": 2000}


def make_service(tmp_path, store=None, **config):
    store = store if store is not None else MemoryResultStore()
    return SweepService(str(tmp_path / "queue"), store,
                        ServiceConfig(jobs=1, **config))


# -- gridspec -------------------------------------------------------------


def test_normalise_fills_defaults():
    spec = normalise_spec({"benchmarks": ["comp"]})
    assert spec["instructions"] == 20_000
    assert "kernel" not in spec
    assert spec["knob"] is None and spec["values"] == []
    assert spec["widths"] == [] and spec["sample"] is None


@pytest.mark.parametrize("payload,field", [
    ("not a dict", ""),
    ({"bogus": 1}, "bogus"),
    ({"benchmarks": ["nope"]}, "benchmarks"),
    ({"benchmarks": []}, "benchmarks"),
    ({"benchmarks": ["comp"], "instructions": 0}, "instructions"),
    ({"benchmarks": ["comp"], "instructions": "many"}, "instructions"),
    ({"benchmarks": ["comp"], "values": [4]}, "values"),
    ({"benchmarks": ["comp"], "knob": "not_a_knob", "values": [4]},
     "values"),
    ({"benchmarks": ["comp"], "kernel": "quantum"}, "kernel"),
    ({"benchmarks": ["comp"], "predictor": "crystal-ball"}, "predictor"),
    ({"benchmarks": ["comp"], "sample": {"interval": "x"}},
     "sample.interval"),
    ({"benchmarks": ["comp"], "sample": {"interval": 1000, "extra": 1}},
     "sample"),
])
def test_normalise_rejections(payload, field):
    with pytest.raises(GridSpecError) as excinfo:
        normalise_spec(payload)
    assert excinfo.value.field == field
    assert excinfo.value.as_dict()["code"] == "invalid_request"


def test_normalise_instruction_cap():
    with pytest.raises(GridSpecError):
        normalise_spec(SMALL, max_instructions=1000)
    assert normalise_spec(SMALL, max_instructions=2000)


def test_equivalent_payloads_share_a_job_id():
    # JSON-native and string knob values mean the same grid.
    a = {"benchmarks": ["comp"], "instructions": 2000,
         "knob": "n", "values": [4, 10]}
    b = {"benchmarks": ["comp"], "instructions": 2000,
         "knob": "n", "values": ["4", "10"]}
    assert spec_job_id(normalise_spec(a)) == spec_job_id(normalise_spec(b))
    # ...and a different grid does not.
    c = dict(a, values=[4, 16])
    assert spec_job_id(normalise_spec(c)) != spec_job_id(normalise_spec(a))


@pytest.mark.parametrize("kernel", ["scalar", "batched"])
def test_kernel_field_is_accepted_and_ignored(kernel):
    # Every run takes the fused loop, so the field selects nothing: a
    # grid names one job whether or not (and however) it is set.
    assert spec_job_id(normalise_spec({**SMALL, "kernel": kernel})) \
        == spec_job_id(normalise_spec(SMALL))


def test_spec_tasks_match_cli_grid():
    from repro.parallel import build_grid

    spec = normalise_spec({"benchmarks": ["comp", "gcc"],
                           "instructions": 2000,
                           "knob": "n", "values": [4, 10]})
    via_spec = [t.key for t in spec_tasks(spec)]
    via_cli = [t.key for t in build_grid(["comp", "gcc"], 2000,
                                         knob="n", values=[4, 10])]
    assert via_spec == via_cli


# -- stores ---------------------------------------------------------------


def _point(key):
    return {"schema": POINT_SCHEMA, "task_key": key, "kind": "baseline",
            "label": "x", "benchmark": "comp", "instructions": 10}


def test_memory_store_contract():
    store = MemoryResultStore()
    assert store.get("k") is None and store.misses == 1
    with pytest.raises(ValueError):
        store.put("k", _point("other"))          # content-address check
    store.put("k", _point("k"))
    assert store.get("k")["task_key"] == "k"
    assert (store.hits, store.writes) == (1, 1)
    assert "k" in store and store.hits == 1      # membership is neutral
    assert len(store) == 1
    # Foreign schema entries read as misses, never errors.
    store._data["bad"] = {"schema": "alien/9", "task_key": "bad"}
    assert store.get("bad") is None and store.invalid == 1
    assert store_stats(store)["entries"] == 2


def test_uncounted_reads_never_write_counters(tmp_path):
    """A service read racing the dispatcher keeps the dispatcher's
    counter increments: the read blocks mid-lookup while a counted
    lookup lands, and the count must survive the read finishing."""

    class BlockingStore(MemoryResultStore):
        def __init__(self):
            super().__init__()
            self.entered = threading.Event()
            self.release = threading.Event()

        def read(self, key):
            self.entered.set()
            assert self.release.wait(5)
            return super().read(key)

    store = BlockingStore()
    store.put("k", _point("k"))
    service = make_service(tmp_path, store=store)
    for peek in (service.task, store.__contains__):
        hits = store.hits
        reader = threading.Thread(target=peek, args=("k",))
        reader.start()
        assert store.entered.wait(5)
        store.hits += 1                 # the dispatcher's counted hit
        store.release.set()
        reader.join(5)
        assert store.hits == hits + 1
        store.entered.clear()
        store.release.clear()


def test_make_store(tmp_path):
    assert isinstance(make_store("mem://"), MemoryResultStore)
    disk = make_store(str(tmp_path / "cache"))
    disk.put("k", _point("k"))
    assert disk.get("k") is not None
    with pytest.raises(ValueError):
        make_store("s3://bucket/prefix")


# -- scheduler ------------------------------------------------------------


def test_fair_scheduler_round_robins_tenants():
    sched = FairScheduler()
    sched.enqueue("a", "a1")
    sched.enqueue("a", "a2")
    sched.enqueue("b", "b1")
    order = [sched.next_job() for _ in range(3)]
    # a's second job must not run before b's first.
    assert order.index("b1") < order.index("a2")
    assert sched.next_job() is None
    sched.enqueue("a", "a1")
    sched.enqueue("a", "a1")                     # duplicate is a no-op
    assert len(sched) == 1


# -- job queue journal ----------------------------------------------------


def test_journal_replay_and_recovery(tmp_path):
    root = str(tmp_path / "q")
    queue = JobQueue(root)
    queue.submit("j1", "alice", {"spec": 1}, ["k1", "k2", "k3"])
    queue.mark_task("j1", "k1", "done")
    queue.mark_task("j1", "k2", "running")
    queue.mark_task("j1", "k3", "failed", "boom")

    replayed = JobQueue(root)                    # simulated process loss
    job = replayed.get("j1")
    assert job.task_states == {"k1": "done", "k2": "queued",
                               "k3": "failed"}
    assert job.failures == {"k3": "boom"}
    assert replayed.recovered_tasks == 1         # k2: running -> queued
    assert replayed.incomplete() == [job]


def test_journal_tolerates_torn_tail(tmp_path):
    root = str(tmp_path / "q")
    queue = JobQueue(root)
    queue.submit("j1", "alice", {}, ["k1"])
    with open(queue.journal_path, "a") as handle:
        handle.write('{"ev": "task", "job": "j1", "key": "k1", "sta')
    replayed = JobQueue(root)
    assert replayed.get("j1").task_states == {"k1": "queued"}


def test_journal_header_carries_schema(tmp_path):
    queue = JobQueue(str(tmp_path / "q"))
    with open(queue.journal_path) as handle:
        header = json.loads(handle.readline())
    assert header["schema"] == "repro.serve.job/1"


# -- service: submit / dedup / results ------------------------------------


def test_submit_run_result_byte_identical(tmp_path):
    service = make_service(tmp_path)
    receipt = service.submit(SMALL)
    assert receipt["created"] and receipt["state"] == "running"
    with pytest.raises(JobNotSettledError):
        service.result(receipt["job"])
    assert service.drain() == 1
    report = service.result(receipt["job"])
    assert report["schema"] == "repro.sweep/1"

    outcome = SweepRunner(jobs=1).run(spec_tasks(normalise_spec(SMALL)))
    local = merge_sweep(outcome.results, errors=outcome.errors)
    for section in ("points", "aggregates", "failures"):
        assert canonical_json(report[section]) == \
            canonical_json(local[section])


def test_served_grid_hashes_each_task_once(tmp_path, monkeypatch):
    """Keys are computed once per task: a served grid of N unique tasks
    costs N ``task_key`` calls from submit to result, and re-reading the
    result or re-running built tasks costs none."""
    import repro.parallel.taskkey as taskkey

    calls = []
    real_task_key = taskkey.task_key

    def counting_task_key(task):
        calls.append(task)
        return real_task_key(task)

    monkeypatch.setattr(taskkey, "task_key", counting_task_key)
    grid = {"benchmarks": ["comp", "gcc", "go", "li"], "instructions": 1000}
    service = make_service(tmp_path)
    receipt = service.submit(grid)
    unique = receipt["total_tasks"]
    assert unique == receipt["grid_points"] == 8
    service.drain()
    service.result(receipt["job"])
    assert len(calls) == unique

    service.result(receipt["job"])
    assert len(calls) == unique

    tasks = spec_tasks(normalise_spec(grid))
    del calls[:]
    SweepRunner(jobs=1).run(tasks)
    SweepRunner(jobs=1, cache=service.store).run(tasks)
    assert calls == []


def test_identical_submissions_share_one_execution(tmp_path):
    service = make_service(tmp_path)
    first = service.submit(SMALL, tenant="alice")
    second = service.submit(dict(SMALL), tenant="bob")
    assert second["job"] == first["job"] and not second["created"]
    service.drain()
    assert service.stats()["store"]["writes"] == first["total_tasks"]
    # Resubmission after completion: immediate, still the same job.
    third = service.submit(dict(SMALL), tenant="carol")
    assert third["job"] == first["job"] and third["state"] == "done"


def test_concurrent_identical_submissions_dedup(tmp_path):
    """The dedup property under a thundering herd: exactly one job is
    created no matter how many identical submissions race."""
    service = make_service(tmp_path)
    receipts = []
    barrier = threading.Barrier(8)

    def submit(i):
        barrier.wait()
        receipts.append(service.submit(dict(SMALL), tenant=f"t{i}"))

    threads = [threading.Thread(target=submit, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({r["job"] for r in receipts}) == 1
    assert sum(1 for r in receipts if r["created"]) == 1
    service.drain()
    assert service.stats()["queue"]["jobs"] == 1
    assert service.stats()["store"]["writes"] == \
        receipts[0]["total_tasks"]


def test_cold_then_warm_pass_store_traffic(tmp_path):
    """A cold/warm request mix read through ``stats()["store"]`` deltas.

    Cold pass: distinct single-benchmark grids across three tenants plus
    one repeat.  Nothing is stored yet, so there are no hits; the repeat
    dedups onto its job; every job settles ``done``.  Warm pass: one
    union grid over the same benchmarks and budget is a new job whose
    every task is already stored, so it reads as all hits, no misses.
    """
    service = make_service(tmp_path)
    names = ["comp", "gcc", "go", "li"]
    cold = [{"benchmarks": [name], "instructions": 1000} for name in names]

    def store_counters():
        store = service.stats()["store"]
        return store["hits"], store["misses"]

    hits0, misses0 = store_counters()
    receipts = [service.submit(spec, tenant=f"tenant-{i % 3}")
                for i, spec in enumerate(cold)]
    repeat = service.submit(dict(cold[0]), tenant="tenant-1")
    service.drain()
    hits1, misses1 = store_counters()
    assert hits1 - hits0 == 0                    # cold hit rate 0.00
    assert misses1 - misses0 == sum(r["total_tasks"] for r in receipts)
    assert all(r["created"] for r in receipts)
    assert repeat["job"] == receipts[0]["job"] and not repeat["created"]
    for receipt in receipts:
        status = service.status(receipt["job"])
        assert status["state"] == "done" and not status["failures"]

    warm = service.submit({"benchmarks": names, "instructions": 1000},
                          tenant="tenant-0")
    assert warm["created"]                       # a new job id
    service.drain()
    hits2, misses2 = store_counters()
    assert misses2 - misses1 == 0                # warm hit rate 1.00
    assert hits2 - hits1 == warm["total_tasks"]
    status = service.status(warm["job"])
    assert status["state"] == "done" and not status["failures"]


def test_rejected_submission_never_touches_the_queue(tmp_path):
    service = make_service(tmp_path)
    journal_before = open(service.queue.journal_path).read()
    for payload in ({"bogus": 1}, {"benchmarks": ["nope"]}, [1, 2], None):
        with pytest.raises(GridSpecError):
            service.submit(payload)
    assert service.stats()["queue"]["jobs"] == 0
    assert open(service.queue.journal_path).read() == journal_before


def test_unknown_job_queries(tmp_path):
    service = make_service(tmp_path)
    assert service.status("nope") is None
    assert service.result("nope") is None
    assert service.task("0" * 64) is None


# -- service: scheduling and resume ---------------------------------------


def test_shards_interleave_tenants(tmp_path):
    service = make_service(tmp_path, shard_size=1)
    small_a = service.submit({"benchmarks": ["comp", "gcc"],
                              "instructions": 1000}, tenant="alice")
    small_b = service.submit({"benchmarks": ["comp"],
                              "instructions": 1500}, tenant="bob")
    # alice's job needs 4 shards (shard_size=1); bob's needs 2.  Fair
    # round-robin must settle bob before alice despite FIFO arrival.
    settled_order = []
    while service.step():
        for job_id in (small_a["job"], small_b["job"]):
            state = service.status(job_id)["state"]
            if state != "running" and job_id not in settled_order:
                settled_order.append(job_id)
    assert settled_order[0] == small_b["job"]


def test_worker_loss_resumes_idempotently(tmp_path):
    """Kill the 'server' mid-grid; a new one over the same journal and
    store finishes the job without re-simulating completed points."""
    store = MemoryResultStore()
    service = make_service(tmp_path, store=store, shard_size=2)
    receipt = service.submit({"benchmarks": ["comp", "gcc"],
                              "instructions": 1000})
    assert service.step()                        # 2 of 4 tasks done
    writes_before = store.writes
    assert writes_before == 2
    # Simulate a crash: also mark one task running in the journal, as a
    # real crash mid-shard would leave it.
    job = service.queue.get(receipt["job"])
    pending = job.pending_keys()
    service.queue.mark_task(receipt["job"], pending[0], "running")
    del service

    revived = make_service(tmp_path, store=store, shard_size=2)
    assert revived.queue.recovered_tasks == 1
    status = revived.status(receipt["job"])
    assert status["state"] == "running"
    assert status["counts"]["queued"] == 2       # running reverted
    revived.drain()
    assert revived.status(receipt["job"])["state"] == "done"
    # Idempotent: the done points were NOT re-simulated or re-written.
    assert store.writes == writes_before + 2
    report = revived.result(receipt["job"])
    assert len(report["points"]) == 4 and not report["failures"]


def test_resume_serves_stored_points_as_hits(tmp_path):
    """A resubmitted grid on a fresh queue but warm store is all hits."""
    store = MemoryResultStore()
    service = make_service(tmp_path, store=store)
    receipt = service.submit(SMALL)
    service.drain()
    simulated_writes = store.writes

    fresh = SweepService(str(tmp_path / "queue2"), store,
                         ServiceConfig(jobs=1))
    fresh.submit(SMALL)
    fresh.drain()
    assert store.writes == simulated_writes      # nothing re-simulated
    assert store.hits >= receipt["total_tasks"]
    for section in ("points", "aggregates"):
        assert canonical_json(fresh.result(receipt["job"])[section]) == \
            canonical_json(service.result(receipt["job"])[section])


def test_failed_points_surface_in_status_and_result(tmp_path):
    service = make_service(tmp_path)
    receipt = service.submit(SMALL)
    job = service.queue.get(receipt["job"])
    # Force both tasks to fail without touching the simulator.
    for key in list(job.task_states):
        service.queue.mark_task(receipt["job"], key, "failed", "boom")
    service.drain()
    status = service.status(receipt["job"])
    assert status["state"] == "failed"
    assert set(status["failures"].values()) == {"boom"}
    report = service.result(receipt["job"])
    assert report["points"] == [] and len(report["failures"]) == 2


def test_events_stream_reaches_terminal_event(tmp_path):
    service = make_service(tmp_path)
    receipt = service.submit(SMALL)
    service.drain()
    events, settled = service.events_since(receipt["job"], 0, timeout=0.0)
    names = [e["ev"] for e in events]
    assert names[0] == "job_submitted"
    assert "job_done" in names
    assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
    # After the terminal event the stream reports settled-and-empty.
    _, settled = service.events_since(receipt["job"], events[-1]["seq"],
                                      timeout=0.0)
    assert settled


def test_schema_version_bump_strands_stored_entries(tmp_path, monkeypatch):
    """A CODE_SCHEMA_VERSION bump makes every stored entry unreachable:
    the new keys simply never collide with the old ones."""
    import repro.parallel.taskkey as taskkey

    store = MemoryResultStore()
    service = make_service(tmp_path, store=store)
    service.submit(SMALL)
    service.drain()
    old_keys = set(store._data)
    assert old_keys

    monkeypatch.setattr(taskkey, "CODE_SCHEMA_VERSION",
                        taskkey.CODE_SCHEMA_VERSION + 1)
    new_keys = {t.key for t in spec_tasks(normalise_spec(SMALL))}
    assert new_keys and new_keys.isdisjoint(old_keys)
