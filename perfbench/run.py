#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro serve`` sweep service.

Run from the repository root::

    python3 perfbench/run.py --workload warm --seed 1 --seconds 10 --trace 0

A run boots ``python -m repro serve`` from ``src/`` on fresh state
``BOOTS`` times.  Each boot is followed by the workload's cache warm-up
grids; the median of boot plus warm-up is ``setup_s``.  The last server
is kept and driven by the workload's closed-loop clients (each sends its
next request only when the previous one has completed): first for
``TRAFFIC_WARMUP`` seconds that are not measured, then for ``--seconds``.
One request is what a user of the service does for one grid:
``POST /v1/sweeps``, follow ``/v1/sweeps/{id}/events`` to the end of the
stream, ``GET /v1/sweeps/{id}/result``.  Its latency runs from the submit
to the last byte of the result.  Latency quantiles and throughput come
from the requests started in the busiest third of the measured window
(see ``busiest_window``).

Workloads (traffic mixes; see ``WORKLOADS``):

* ``warm`` -- one client sends distinct 4-benchmark grids whose points
  were all simulated during warm-up: every task is a result-store hit, so
  requests measure HTTP, job queue, scheduler, store reads and the merge,
  not simulation.
* ``cold`` -- every grid is a point never simulated before: every task
  misses the store and runs through the sweep runner, the functional
  simulator and the timing kernels (scalar and batched in turn).  Two
  clients submit each grid at the same time, so job-level dedup must give
  one execution shared by both.

After the window the outputs are checked: HTTP codes, the terminal
``job_done`` event, every grid point present with no failures, store
counter deltas that match the workload, served warm points equal to the
warm-up's, and a seeded sample of served grids re-simulated in this
process through the same sweep pipeline, which must match byte for byte
outside the artifact's ``context``.

The last line on stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer metrics derived from
spans recorded around each call into a layer, and writes the spans to
``.perfbench_run/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")

#: Server boots per run; ``setup_s`` is their median.
BOOTS = 3
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
#: Served grids per kernel re-simulated locally for the identity check.
REFERENCE_PER_KERNEL = 2
#: Served grids kept for that sample (the first ones completed).
MAX_KEPT = 400
#: Fewer completed requests than this give no meaningful percentiles.
MIN_REQUESTS = 20

#: Unmeasured traffic before the measured window (seconds): the first
#: seconds of traffic run slower than the rest.
TRAFFIC_WARMUP = 3.0
#: Share of the measured window the end-to-end figures come from (see
#: ``busiest_window``).
BUSIEST_SHARE = 1 / 3

KERNELS = ("scalar", "batched")
#: Per-point instruction budgets.  Cold grids get a fresh budget per
#: request (``base + offset + index``) so no two requests share a task
#: key; the warm-up budget sits below every measured one.
WARM_BUDGET = 3000
#: Benchmarks per warm grid: C(20, 4) = 4845 distinct grids, about three
#: times what a 45 s run requests.
WARM_GRID = 4
COLD_BUDGET = 4000
WARMUP_BUDGET = 1000


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- spans ----------------------------------------------------------------


class Spans:
    """In-memory span log: name, start, end, parent, request id."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._next = 0
        self.records: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: Optional[int] = None,
            **fields: Any) -> int:
        with self._lock:
            self._next += 1
            span_id = self._next
            self.records.append(dict(
                fields, id=span_id, parent=parent, request=request,
                name=name, start=start - self.origin,
                end=end - self.origin))
        return span_id

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name]


# -- HTTP client ----------------------------------------------------------


def call(port: int, method: str, path: str,
         body: Optional[Dict[str, Any]] = None,
         tenant: Optional[str] = None) -> Tuple[int, bytes]:
    """One round trip on a fresh connection (the server closes each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Tenant"] = tenant
        conn.request(method, path,
                     body=None if body is None else json.dumps(body),
                     headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def call_json(port: int, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              tenant: Optional[str] = None) -> Tuple[int, Any]:
    status, raw = call(port, method, path, body, tenant)
    return status, json.loads(raw) if raw else None


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def essence(report: Dict[str, Any]) -> str:
    """A merged artifact minus ``context`` (run accounting)."""
    return canonical({"points": report["points"],
                      "aggregates": report["aggregates"],
                      "failures": report["failures"]})


class RequestError(Exception):
    """A request that did not end with a complete, failure-free grid."""


def run_grid(port: int, spec: Dict[str, Any], tenant: str,
             spans: Spans, request_id: int) -> Tuple[Dict[str, Any], bool]:
    """Submit ``spec``, follow its event stream, fetch the result.

    Returns ``(report, created)``; raises :class:`RequestError` when the
    service answers with anything but a complete grid.
    """
    t0 = time.perf_counter()
    status, receipt = call_json(port, "POST", "/v1/sweeps", spec, tenant)
    t1 = time.perf_counter()
    if status not in (200, 202) or not receipt:
        raise RequestError(f"submit: HTTP {status}: {receipt}")
    job = receipt["job"]
    status, raw = call(port, "GET", f"/v1/sweeps/{job}/events")
    t2 = time.perf_counter()
    events = [json.loads(line) for line in raw.splitlines() if line.strip()]
    if status != 200 or not any(e.get("ev") == "job_done" for e in events):
        raise RequestError(f"events: HTTP {status}, no job_done event")
    status, report = call_json(port, "GET", f"/v1/sweeps/{job}/result")
    t3 = time.perf_counter()
    if status != 200 or not report:
        raise RequestError(f"result: HTTP {status}")
    expected = 2 * len(spec["benchmarks"])     # baseline + ssmt each
    if len(report["points"]) != expected or report["failures"]:
        raise RequestError(f"result: {len(report['points'])}/{expected} "
                           f"points, failures {report['failures']}")
    root = spans.add("request", t0, t3, request=request_id)
    spans.add("submit", t0, t1, root, request_id)
    spans.add("events", t1, t2, root, request_id)
    spans.add("result", t2, t3, root, request_id, events=len(events))
    return report, bool(receipt["created"])


# -- server process -------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on its own state directory."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self._drain: Optional[threading.Thread] = None
        self._log = None

    def start(self) -> None:
        os.makedirs(self.state_dir)
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_JOBS", None)
        self._log = open(os.path.join(self.state_dir, "server.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--queue-dir", os.path.join(self.state_dir, "queue")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True)
        watchdog = threading.Timer(READY_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    self.port = int(line.split("listening on http://")[1]
                                    .split()[0].rsplit(":", 1)[1])
                    break
        finally:
            watchdog.cancel()
        if not self.port:
            raise RuntimeError(f"server did not start; see "
                               f"{self._log.name}")
        # Keep reading stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(
            target=lambda: [None for _ in self.proc.stdout], daemon=True)
        self._drain.start()
        status, body = call_json(self.port, "GET", "/v1/healthz")
        if status != 200 or not body or not body.get("ok"):
            raise RuntimeError(f"healthz: HTTP {status}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()
        self.proc = None


# -- workloads ------------------------------------------------------------


class Workload:
    """A traffic mix: warm-up grids, the per-request grid, expectations."""

    #: Concurrent closed-loop clients.  One, unless the workload is about
    #: concurrency: the service runs one shard at a time, so more clients
    #: only add queueing, and threads beyond the host's cores measure the
    #: scheduler rather than the service.
    clients = 1

    def __init__(self, seed: int, names: List[str]):
        self.seed = seed
        self.names = list(names)
        self.rng = random.Random(seed)

    def warmup(self) -> List[Dict[str, Any]]:
        """Grids run once per boot, before measuring."""
        raise NotImplementedError

    def spec(self, client: int, index: int) -> Dict[str, Any]:
        """The grid client ``client`` sends as its ``index``-th request."""
        raise NotImplementedError

    def check_report(self, report: Dict[str, Any],
                     warm_points: Dict[str, str]) -> Optional[str]:
        """A problem with one served grid beyond its shape, if any."""
        return None

    def check_store(self, delta: Dict[str, int], created_tasks: int,
                    deduped: int) -> List[str]:
        """Problems with the store counter deltas of the traffic.

        Only ``writes`` is exact under concurrent requests: the service
        restores ``hits``/``misses`` around its own result reads, which
        can lose or repeat increments made meanwhile by the dispatcher.
        """
        raise NotImplementedError


class Warm(Workload):
    """Distinct grids over points the warm-up already simulated."""

    def __init__(self, seed: int, names: List[str]):
        super().__init__(seed, names)
        self._seen: set = set()
        self._lock = threading.Lock()

    def warmup(self) -> List[Dict[str, Any]]:
        return [{"benchmarks": self.names, "instructions": WARM_BUDGET,
                 "kernel": "batched"}]

    def spec(self, client: int, index: int) -> Dict[str, Any]:
        """A seeded ``WARM_GRID``-benchmark grid not requested before in
        this run: every request is the same amount of work (a mix of grid
        sizes would put the median on the edge between two of them) and
        creates a job, so none is served by job-level dedup instead."""
        with self._lock:
            if len(self._seen) == math.comb(len(self.names), WARM_GRID):
                self._seen.clear()      # every grid sent: start over
            while True:
                picked = tuple(sorted(self.rng.sample(self.names,
                                                      WARM_GRID)))
                if picked not in self._seen:
                    self._seen.add(picked)
                    break
        return {"benchmarks": list(picked), "instructions": WARM_BUDGET,
                "kernel": "batched"}

    def check_report(self, report, warm_points):
        for point in report["points"]:
            if warm_points.get(point["task_key"]) != canonical(point):
                return f"point {point['task_key']} differs from warm-up"
        return None

    def check_store(self, delta, created_tasks, deduped):
        if delta["misses"] or delta["writes"] or not delta["hits"]:
            return [f"warm grids did not all hit the store: {delta}"]
        return []


class Cold(Workload):
    """Fresh grids, each submitted by every client at the same time."""

    clients = 2

    def __init__(self, seed: int, names: List[str]):
        super().__init__(seed, names)
        self.offset = self.rng.randrange(100)
        self.order = list(names)
        self.rng.shuffle(self.order)

    def warmup(self) -> List[Dict[str, Any]]:
        """Build every benchmark program and load both kernels in the
        server.  Task keys leave the kernel out, so each kernel gets its
        own budget."""
        return [{"benchmarks": self.names, "instructions": WARMUP_BUDGET + i,
                 "kernel": kernel} for i, kernel in enumerate(KERNELS)]

    def spec(self, client: int, index: int) -> Dict[str, Any]:
        """Grid ``index`` of a sequence that never repeats a task key.

        Benchmarks cycle through a seeded order and kernels alternate,
        flipping every cycle, so any two consecutive cycles run every
        (benchmark, kernel) pair once: each seed sees the same work.
        """
        n = len(self.order)
        return {"benchmarks": [self.order[index % n]],
                "instructions": COLD_BUDGET + self.offset + index,
                "kernel": KERNELS[(index + index // n) % len(KERNELS)]}

    def check_store(self, delta, created_tasks, deduped):
        problems = []
        if delta["writes"] != created_tasks:
            problems.append(f"store writes {delta['writes']} != tasks of "
                            f"created jobs {created_tasks}")
        if not deduped:
            problems.append("no submission was deduplicated")
        return problems


WORKLOADS: Dict[str, Callable[[int, List[str]], Workload]] = {
    "warm": Warm, "cold": Cold}


# -- one run --------------------------------------------------------------


def store_counters(port: int) -> Dict[str, int]:
    status, stats = call_json(port, "GET", "/v1/stats")
    if status != 200 or not stats:
        raise RuntimeError(f"/v1/stats: HTTP {status}")
    return dict(stats["store"], shards_run=stats["shards_run"])


def boot(workload: Workload, state_dir: str,
         spans: Spans) -> Tuple[Server, Dict[str, str]]:
    """Start a server and run the warm-up grids; returns the server and
    the warm-up points (task key -> canonical point)."""
    server = Server(state_dir)
    t0 = time.perf_counter()
    try:
        server.start()
        t1 = time.perf_counter()
        points: Dict[str, str] = {}
        for spec in workload.warmup():
            report, _ = run_grid(server.port, spec, "warmup", spans, 0)
            for point in report["points"]:
                points[point["task_key"]] = canonical(point)
        t2 = time.perf_counter()
    except BaseException:
        server.stop()
        raise
    root = spans.add("setup", t0, t2)
    spans.add("boot", t0, t1, root)
    spans.add("warmup", t1, t2, root)
    return server, points


def reference_check(samples: List[Tuple[Dict[str, Any], Dict[str, Any]]],
                    spans: Spans) -> List[str]:
    """Re-simulate served grids in-process and compare byte for byte."""
    from repro.parallel.sweep import merge_sweep
    from repro.parallel.worker import run_task
    from repro.serve.gridspec import normalise_spec, spec_tasks
    from repro.workloads import benchmark_trace

    problems = []
    for spec, served in samples:
        payloads = []
        for task in spec_tasks(normalise_spec(spec)):
            t0 = time.perf_counter()
            benchmark_trace(task.benchmark, task.instructions)
            t1 = time.perf_counter()
            # The trace is now cached, so this times the timing model
            # (and SSMT engine) alone.
            payloads.append(run_task(task))
            t2 = time.perf_counter()
            root = spans.add("reference", t0, t2)
            spans.add("functional", t0, t1, root)
            spans.add("timing", t1, t2, root,
                      instructions=task.instructions)
        if essence(merge_sweep(payloads)) != essence(served):
            problems.append(f"served grid differs from local sweep: {spec}")
    return problems


def measure(workload: Workload, server: Server, seconds: float,
            warm_points: Dict[str, str], spans: Spans,
            ) -> Tuple[Dict[str, Any], List[str]]:
    """Drive the server for ``TRAFFIC_WARMUP`` plus ``seconds``; requests
    sent before the measured window are checked but not timed."""
    start = time.perf_counter() + TRAFFIC_WARMUP
    deadline = start + seconds
    lock = threading.Lock()
    timed: List[Tuple[float, float]] = []    # (start offset, latency)
    completed: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    errors: List[str] = []
    tally = {"attempted": 0, "created_tasks": 0, "deduped": 0}

    def client(k: int) -> None:
        index = 0
        while time.perf_counter() < deadline:
            spec = workload.spec(k, index)
            index += 1
            with lock:
                tally["attempted"] += 1
                request_id = tally["attempted"]
            t0 = time.perf_counter()
            try:
                report, created = run_grid(server.port, spec,
                                           f"client-{k}", spans, request_id)
            except (RequestError, OSError, http.client.HTTPException,
                    ValueError, KeyError) as error:
                with lock:
                    errors.append(f"{spec}: {error!r}")
                continue
            elapsed = time.perf_counter() - t0
            mismatch = workload.check_report(report, warm_points)
            with lock:
                if mismatch is not None:
                    errors.append(mismatch)
                    continue
                if t0 >= start:
                    timed.append((t0 - start, elapsed))
                if created:
                    tally["created_tasks"] += 2 * len(spec["benchmarks"])
                else:
                    tally["deduped"] += 1
                if len(completed) < MAX_KEPT:
                    completed.append((spec, report))

    before = store_counters(server.port)
    cpu_before = (server.cpu_seconds(), time.process_time())
    began = time.perf_counter()
    threads = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    cpu = (server.cpu_seconds() - cpu_before[0],
           time.process_time() - cpu_before[1])
    after = store_counters(server.port)
    delta = {key: after[key] - before[key] for key in after}

    problems = list(errors[:5])
    problems += workload.check_store(delta, tally["created_tasks"],
                                     tally["deduped"])
    rng = random.Random(workload.seed)
    samples = []
    for kernel in KERNELS:
        group = [pair for pair in completed if pair[0]["kernel"] == kernel]
        samples += rng.sample(group, min(REFERENCE_PER_KERNEL, len(group)))
    if not samples:
        problems.append("no completed request to check")
    problems += reference_check(samples, spans)

    result = {
        "attempted": tally["attempted"],
        "failed": len(errors),
        "latencies": [latency for _, latency in timed],
        "busiest": busiest_window(timed, seconds),
        "traffic_s": end - began,
        "delta": delta,
        "deduped": tally["deduped"],
        "peak_rss_mb": server.peak_rss_mb(),
        "server_cpu_s": cpu[0],
        "client_cpu_s": cpu[1],
    }
    return result, problems


def busiest_window(timed: List[Tuple[float, float]],
                   seconds: float) -> Tuple[List[float], float]:
    """Latencies of the requests started in the contiguous stretch of
    ``BUSIEST_SHARE`` of the window in which the most requests started,
    and that stretch's length.

    On a shared host the speed of a core can swing by over a third for
    tens of seconds at a time, so the whole window's figures move with
    whatever the host did during the run.  In the busiest stretch the
    service ran least disturbed; its figures are the ones a change to the
    service moves and host interference moves least.
    """
    length = seconds * BUSIEST_SHARE
    timed = sorted(timed)
    best: Optional[Tuple[int, int]] = None
    end = 0
    for first, (offset, _) in enumerate(timed):
        if offset + length > seconds:
            break
        while end < len(timed) and timed[end][0] < offset + length:
            end += 1
        if best is None or end - first > best[1] - best[0]:
            best = (first, end)
    if best is None:        # no request started early enough
        return [latency for _, latency in timed], seconds
    return [latency for _, latency in timed[best[0]:best[1]]], length


def p95(values: List[float]) -> float:
    """95th percentile: its tail holds over ten requests on every
    workload at the counts the busiest third of a 45 s run reaches (about
    500; the ``requests`` per-layer metric counts the whole window), and
    a higher one would move with single slow requests."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(run: Dict[str, Any], setup: List[float]) -> Dict[str, Any]:
    lat, length = run["busiest"]
    return {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p95_ms": (p95(lat) * 1e3, "ms"),
        "throughput_rps": (len(lat) / length, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(run: Dict[str, Any], spans: Spans) -> Dict[str, Any]:
    def median_ms(name: str) -> float:
        return statistics.median(spans.durations(name)) * 1e3

    refs = [r for r in spans.records if r["name"] == "timing"]
    instructions = sum(r["instructions"] for r in refs)
    functional = sum(spans.durations("functional"))
    timing = sum(spans.durations("timing"))
    streamed = [r["events"] for r in spans.records
                if r["name"] == "result" and r["request"]]
    delta = run["delta"]
    return {
        "requests": (len(run["latencies"]), "count"),
        "submit_ms": (median_ms("submit"), "ms"),
        "events_ms": (median_ms("events"), "ms"),
        "result_ms": (median_ms("result"), "ms"),
        "events_per_request": (statistics.mean(streamed), "count"),
        "store_hits": (delta["hits"], "count"),
        "store_misses": (delta["misses"], "count"),
        "store_writes": (delta["writes"], "count"),
        "shards_run": (delta["shards_run"], "count"),
        "deduped_submits": (run["deduped"], "count"),
        "boot_s": (median_ms("boot") / 1e3, "s"),
        "warmup_s": (median_ms("warmup") / 1e3, "s"),
        "server_peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "server_busy": (run["server_cpu_s"] / run["traffic_s"], "cpu/s"),
        "client_busy": (run["client_cpu_s"] / run["traffic_s"], "cpu/s"),
        "functional_kips": (instructions / functional / 1e3, "kinst/s"),
        "timing_kips": (instructions / timing / 1e3, "kinst/s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail_setup(f"no repro package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    try:
        from repro.workloads import BENCHMARK_NAMES
    except ImportError as error:
        fail_setup(f"cannot import repro: {error}")

    # A run stopped with SIGTERM unwinds, so its servers stop too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    state = os.path.join(WORK, f"state-{args.workload}-{args.seed}")
    shutil.rmtree(state, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)

    spans = Spans()
    workload = WORKLOADS[args.workload](args.seed, list(BENCHMARK_NAMES))
    server: Optional[Server] = None
    try:
        warm_points: Dict[str, str] = {}
        for n in range(BOOTS):
            if server is not None:
                server.stop()
            server, warm_points = boot(workload,
                                       os.path.join(state, f"boot{n}"),
                                       spans)
        setup = spans.durations("setup")
        run, problems = measure(workload, server, args.seconds,
                                warm_points, spans)
    finally:
        if server is not None:
            server.stop()
    shutil.rmtree(state, ignore_errors=True)

    if len(run["latencies"]) < MIN_REQUESTS:
        problems.append(f"only {len(run['latencies'])} requests completed")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if len(run["latencies"]) < MIN_REQUESTS:
        return 1
    if args.trace:
        metrics = per_layer(run, spans)
        path = os.path.join(WORK,
                            f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans.records, handle)
    else:
        metrics = end_to_end(run, setup)
    print(json.dumps({
        "correct": not problems and run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
