"""Simulator throughput: the cost of the models themselves.

Not a paper experiment — this measures the reproduction's own speed
(instructions per second of the functional simulator, the baseline
timing model and the full SSMT machine) so regressions in the hot loops
are caught.  These run multiple rounds since they are cheap.

Every gate keeps measuring the loop it always measured: the
``timing``/``ssmt``/``ssmt_telemetry`` points, the regression gate and
the telemetry/obs overhead budgets time the per-record loop, now kept
as :class:`~repro.perf.reference.ReferenceTimingModel`; the
``ssmt_batched`` point and the 3x seed gate time the fused loop of
:class:`~repro.kernel.batched.OoOTimingModel`.

The module also checks the telemetry layer's overhead contract: an
attached :class:`~repro.telemetry.session.TelemetrySession` (sampler +
tracer) may cost at most 10% over a detached run.  Measured means are
written to ``BENCH_throughput.json`` (schema ``repro.bench/1``) so CI
can archive the performance trajectory.

Two entries guard the hot-path optimization pass (see
``docs/performance.md``):

* the committed **baseline** (``throughput_baseline.json``) — the seed
  tree's SSMT throughput plus the post-optimization reference, both
  normalized by a pure-Python calibration loop so they transfer across
  machines — is replayed into ``BENCH_throughput.json`` alongside the
  freshly **measured** point, and
* a **regression gate** fails the run if measured normalized throughput
  drops more than ``gate.max_regression_fraction`` below the committed
  reference.
"""

import json
import os
import time

import pytest

from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.sim.functional import FunctionalSimulator
from repro.kernel import OoOTimingModel
from repro.perf.reference import ReferenceTimingModel
from repro.telemetry import TelemetrySession, write_bench_json
from repro.workloads import benchmark_trace, build_benchmark

BENCH = "gcc"
LENGTH = 50_000

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "throughput_baseline.json")
#: iterations of the calibration loop (matches the committed baseline)
CALIBRATION_OPS = 2_000_000

#: attached-telemetry slowdown budget (relative to detached)
TELEMETRY_OVERHEAD_BUDGET = 0.10

_RESULTS = {}


@pytest.fixture(scope="module")
def trace():
    return benchmark_trace(BENCH, LENGTH)


@pytest.fixture(scope="module", autouse=True)
def _bench_artifact():
    """Write BENCH_throughput.json after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_throughput.json")
    write_bench_json(path, "throughput", dict(_RESULTS), context={
        "benchmark": BENCH,
        "instructions": LENGTH,
    })


def _record(name, benchmark):
    mean = benchmark.stats.stats.mean
    _RESULTS[name] = {
        "mean_seconds": mean,
        "instructions_per_second": LENGTH / mean if mean else 0.0,
    }


def test_functional_simulator_throughput(benchmark):
    program = build_benchmark(BENCH)

    def run():
        return FunctionalSimulator(program, max_instructions=LENGTH).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result) == LENGTH
    _record("functional", benchmark)


def test_timing_model_throughput(benchmark, trace):
    def run():
        return ReferenceTimingModel().run(trace, BranchPredictorComplex())

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.instructions == LENGTH
    _record("timing", benchmark)


def test_ssmt_machine_throughput(benchmark, trace):
    def run():
        engine = SSMTEngine(SSMTConfig(),
                            initial_memory=trace.initial_memory)
        return ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                          engine)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.instructions == LENGTH
    _record("ssmt", benchmark)


def test_batched_kernel_throughput(benchmark, trace):
    """The fused retire loop on the full SSMT machine."""

    def run():
        engine = SSMTEngine(SSMTConfig(),
                            initial_memory=trace.initial_memory)
        return OoOTimingModel().run(trace, BranchPredictorComplex(), engine)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.instructions == LENGTH
    _record("ssmt_batched", benchmark)


def test_ssmt_telemetry_throughput(benchmark, trace):
    """Full machine with the telemetry session attached."""

    def run():
        telemetry = TelemetrySession(sample_every=2000)
        engine = SSMTEngine(SSMTConfig(),
                            initial_memory=trace.initial_memory,
                            telemetry=telemetry)
        return ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                          engine)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.instructions == LENGTH
    _record("ssmt_telemetry", benchmark)


def _calibrate() -> float:
    """Machine-speed yardstick: pure-Python integer ops per second.

    The SSMT engine's throughput divided by this rate is stable across
    machine speeds (it cancels CPU frequency and ambient load), which is
    what makes a committed baseline meaningful on CI runners.  Best of
    three so a scheduling hiccup cannot depress the yardstick.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_OPS):
            acc = (acc + i) ^ (i >> 3)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return CALIBRATION_OPS / best


def test_throughput_regression_gate(trace):
    """Fail if SSMT throughput regresses against the committed baseline.

    Replays the committed seed + optimized points into the artifact so
    ``BENCH_throughput.json`` always shows the optimization trajectory
    (baseline vs optimized vs measured-now), then gates the fresh
    measurement against ``gate.reference_normalized_throughput``.
    """
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    assert baseline["schema"] == "repro.perf.baseline/1"

    def run_once():
        engine = SSMTEngine(SSMTConfig(),
                            initial_memory=trace.initial_memory)
        start = time.perf_counter()
        ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                   engine)
        return time.perf_counter() - start

    # Best of paired (sim, calibration) attempts — see the batched gate
    # below for why pairing beats one calibration per session.
    gate = baseline["gate"]
    floor = (gate["reference_normalized_throughput"]
             * (1.0 - gate["max_regression_fraction"]))
    best = None
    for _attempt in range(5):
        sim = min(run_once() for _ in range(2))
        calibration = _calibrate()
        ips = LENGTH / sim
        normalized = ips / calibration
        if best is None or normalized > best[0]:
            best = (normalized, ips, calibration)
        if best[0] >= floor:
            break
    normalized, ips, calibration = best

    _RESULTS["ssmt_baseline_seed"] = {
        "instructions_per_second":
            baseline["seed"]["ssmt_instructions_per_second"],
        "normalized_throughput": baseline["seed"]["normalized_throughput"],
        "source": "committed baseline (pre-optimization tree)",
    }
    _RESULTS["ssmt_optimized_reference"] = {
        "instructions_per_second":
            baseline["optimized"]["ssmt_instructions_per_second"],
        "normalized_throughput":
            baseline["optimized"]["normalized_throughput"],
        "source": "committed baseline (post-optimization tree)",
    }
    _RESULTS["ssmt_measured"] = {
        "instructions_per_second": ips,
        "normalized_throughput": normalized,
        "calibration_ops_per_second": calibration,
        "speedup_vs_seed":
            normalized / baseline["seed"]["normalized_throughput"],
    }

    assert normalized >= floor, (
        f"SSMT throughput regressed: normalized {normalized:.6f} is below "
        f"the gate floor {floor:.6f} "
        f"(reference {gate['reference_normalized_throughput']:.6f}, "
        f"allowed regression {gate['max_regression_fraction']:.0%}; "
        f"measured {ips:,.0f} insts/s at "
        f"{calibration:,.0f} calibration ops/s)")


def test_optimized_speedup_over_seed_baseline(trace):
    """The optimization pass must hold its >=1.5x win over the seed tree.

    Compares freshly measured normalized throughput against the
    committed *seed* point — the cross-machine form of "simulation is
    now at least 1.5x faster than before the ``repro.perf`` pass".
    """
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    measured = _RESULTS.get("ssmt_measured")
    if measured is None:  # gate test did not run (e.g. -k selection)
        pytest.skip("requires test_throughput_regression_gate results")
    speedup = (measured["normalized_throughput"]
               / baseline["seed"]["normalized_throughput"])
    assert speedup >= 1.5, (
        f"optimized-over-seed speedup {speedup:.2f}x fell below 1.5x")


def test_batched_kernel_speedup_over_seed(trace):
    """The fused loop must clear 3x the committed seed throughput.

    Same cross-machine normalization as the regression gate: fresh
    fused-loop throughput divided by the calibration yardstick,
    compared against the committed seed tree's normalized point.  The
    first run pays the one-time predecode walk; best-of-three reflects
    steady-state sweep throughput, which is what the fused loop exists
    for.
    """
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)

    def run_once():
        engine = SSMTEngine(SSMTConfig(),
                            initial_memory=trace.initial_memory)
        start = time.perf_counter()
        OoOTimingModel().run(trace, BranchPredictorComplex(), engine)
        return time.perf_counter() - start

    # Ambient load depresses whichever side it hits; pairing the sim run
    # with an immediately following calibration and keeping the best pair
    # rejects load spikes the way the obs-overhead benchmark does.
    seed = baseline["seed"]["normalized_throughput"]
    best = None
    for _attempt in range(5):
        sim = min(run_once() for _ in range(2))
        calibration = _calibrate()
        ips = LENGTH / sim
        normalized = ips / calibration
        if best is None or normalized > best[0]:
            best = (normalized, ips, calibration)
        if best[0] / seed >= 3.0:
            break
    normalized, ips, calibration = best
    speedup = normalized / seed
    _RESULTS["ssmt_batched_measured"] = {
        "instructions_per_second": ips,
        "normalized_throughput": normalized,
        "calibration_ops_per_second": calibration,
        "speedup_vs_seed": speedup,
    }
    assert speedup >= 3.0, (
        f"batched kernel speedup over seed {speedup:.2f}x fell below 3.0x "
        f"({ips:,.0f} insts/s at {calibration:,.0f} calibration ops/s; "
        f"seed normalized {seed:.6f})")


def test_telemetry_overhead_within_budget(trace):
    """Attached sampler + tracer may slow the machine by at most 10%.

    Measured directly (best of three, not via pytest-benchmark) so the
    two configurations run interleaved under identical conditions.
    """

    def run_once(telemetry):
        engine = SSMTEngine(SSMTConfig(),
                            initial_memory=trace.initial_memory,
                            telemetry=telemetry)
        start = time.perf_counter()
        ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                   engine)
        return time.perf_counter() - start

    detached = min(run_once(None) for _ in range(3))
    attached = min(run_once(TelemetrySession(sample_every=2000))
                   for _ in range(3))
    overhead = attached / detached - 1.0
    _RESULTS["telemetry_overhead"] = {
        "detached_seconds": detached,
        "attached_seconds": attached,
        "overhead_fraction": overhead,
    }
    assert overhead <= TELEMETRY_OVERHEAD_BUDGET, (
        f"telemetry overhead {overhead:.1%} exceeds "
        f"{TELEMETRY_OVERHEAD_BUDGET:.0%} budget "
        f"({detached:.3f}s detached vs {attached:.3f}s attached)")


def test_obs_overhead_within_budget(trace):
    """A full ObsSession (event recorder + flight recorder) may add at
    most the telemetry budget on top of a plain TelemetrySession.

    Composed with :func:`test_telemetry_overhead_within_budget` (plain
    telemetry <= 10% over detached), this bounds the full observability
    stack.  The gate is differential — obs-attached vs
    telemetry-attached, run as adjacent pairs — because at this budget
    an absolute wall-clock ratio sits inside scheduler noise on loaded
    runners.  Noise only ever inflates a run, so the *best* of five
    paired ratios tracks the true overhead; a genuine regression
    inflates every pair.  The import is deliberately local: this is the
    only benchmark that touches ``repro.obs``, keeping every other
    measurement on the untouched default path.
    """
    from repro.obs import FlightRecorder, ObsSession

    def run_once(telemetry):
        engine = SSMTEngine(SSMTConfig(),
                            initial_memory=trace.initial_memory,
                            telemetry=telemetry)
        start = time.perf_counter()
        ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                   engine)
        return time.perf_counter() - start

    def obs_session():
        return ObsSession(sample_every=2000, flight=FlightRecorder())

    run_once(obs_session())        # warm the obs import + code paths
    best = None
    for _attempt in range(2):
        for _ in range(5):
            plain = run_once(TelemetrySession(sample_every=2000))
            obs = run_once(obs_session())
            ratio = obs / plain - 1.0
            if best is None or ratio < best[0]:
                best = (ratio, plain, obs)
        if best[0] <= TELEMETRY_OVERHEAD_BUDGET:
            break
    overhead, plain, obs = best
    _RESULTS["obs_overhead"] = {
        "telemetry_attached_seconds": plain,
        "obs_attached_seconds": obs,
        "overhead_over_telemetry_fraction": overhead,
    }
    assert overhead <= TELEMETRY_OVERHEAD_BUDGET, (
        f"obs overhead {overhead:.1%} over plain telemetry exceeds "
        f"{TELEMETRY_OVERHEAD_BUDGET:.0%} budget in ten paired runs "
        f"({plain:.3f}s telemetry vs {obs:.3f}s obs)")
