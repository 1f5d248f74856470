"""Drivers for the paper's figures (speed-up and microthread studies).

Each function runs the relevant machine configurations over suite
benchmarks and returns plain data structures (dicts of floats) that the
benchmark harness prints and EXPERIMENTS.md records.  All drivers accept
``trace_length`` so tests can run them on short traces.

Every driver routes its simulations through
:class:`repro.parallel.SweepRunner`: pass ``jobs`` to fan the
(benchmark x configuration) grid across a process pool and ``cache_dir``
to reuse previously simulated points — results are identical either way
(the runner's task-key contract; see ``docs/telemetry.md``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.branch.unit import BranchPredictorComplex
from repro.core.oracle import PotentialConfig
from repro.core.ssmt import SSMTConfig
from repro.kernel.batched import BatchedOoOTimingModel
from repro.parallel import SweepRunner, SweepTask, point_ipc
from repro.sim.trace import Trace
from repro.uarch.config import TABLE3_BASELINE, MachineConfig
from repro.uarch.timing import TimingResult
from repro.workloads.suite import DEFAULT_TRACE_LENGTH


def baseline_run(trace: Trace,
                 machine: MachineConfig = TABLE3_BASELINE) -> TimingResult:
    """The Table 3 baseline machine with the hardware hybrid predictor."""
    return BatchedOoOTimingModel(machine).run(trace, BranchPredictorComplex())


def _run_grid(tasks: List[SweepTask], jobs: Optional[int],
              cache_dir: Optional[str]) -> List[Dict[str, Any]]:
    """Execute a task grid; raise if any point failed."""
    outcome = SweepRunner(jobs=jobs, cache_dir=cache_dir).run(tasks)
    if outcome.failures:
        raise RuntimeError(
            f"experiment sweep failed for {outcome.failures} point(s): "
            f"{outcome.errors}")
    return [r for r in outcome.results if r is not None]


def intro_perfect_prediction(
    benchmarks: Sequence[str],
    trace_length: int = DEFAULT_TRACE_LENGTH,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, float]:
    """§1 claim: speed-up from eliminating all remaining mispredictions.

    Returns per-benchmark speed-up of oracle direction/target prediction
    over the baseline (the paper quotes ~2x on average).
    """
    tasks: List[SweepTask] = []
    for name in benchmarks:
        tasks.append(SweepTask(kind="baseline", benchmark=name,
                               instructions=trace_length))
        tasks.append(SweepTask(kind="oracle", benchmark=name,
                               instructions=trace_length))
    results = _run_grid(tasks, jobs, cache_dir)
    speedups: Dict[str, float] = {}
    for i, name in enumerate(benchmarks):
        base, perfect = results[2 * i], results[2 * i + 1]
        speedups[name] = point_ipc(perfect) / point_ipc(base)
    return speedups


def figure6_potential(
    benchmarks: Sequence[str],
    ns: Sequence[int] = (4, 10, 16),
    threshold: float = 0.10,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    path_cache_entries: int = 8192,
    training_interval: int = 32,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, Dict[int, float]]:
    """Figure 6: potential speed-up from perfectly predicting the
    terminating branches of promoted difficult paths.

    Returns ``{benchmark: {n: speedup}}``.
    """
    tasks: List[SweepTask] = []
    for name in benchmarks:
        tasks.append(SweepTask(kind="baseline", benchmark=name,
                               instructions=trace_length))
        for n in ns:
            tasks.append(SweepTask(
                kind="potential", benchmark=name,
                instructions=trace_length, label=f"n={n}",
                potential=PotentialConfig(
                    n=n,
                    difficulty_threshold=threshold,
                    path_cache_entries=path_cache_entries,
                    training_interval=training_interval,
                )))
    grid = _run_grid(tasks, jobs, cache_dir)
    results: Dict[str, Dict[int, float]] = {}
    stride = 1 + len(ns)
    for b, name in enumerate(benchmarks):
        base = point_ipc(grid[b * stride])
        results[name] = {
            n: point_ipc(grid[b * stride + 1 + j]) / base
            for j, n in enumerate(ns)
        }
    return results


@dataclass
class RealisticResult:
    """Figure 7 bars plus the engine statistics behind Figures 8-9.

    The per-configuration ``*_metrics`` dicts are the worker's
    serializable engine snapshot (``repro.parallel.engine_metrics``):
    ``{"path_cache": {...}, "builder": {...}, "spawn": {...},
    "prediction_cache": {...}, "microram": {...},
    "prediction_kinds": {...}, ...}`` — the same shape whether the point
    ran in-process, in a pool worker, or came from the result cache.
    """

    benchmark: str
    baseline_ipc: float
    speedup_no_pruning: float
    speedup_pruning: float
    speedup_overhead_only: float
    no_pruning_metrics: Dict[str, Any] = field(default_factory=dict)
    pruning_metrics: Dict[str, Any] = field(default_factory=dict)


def figure7_realistic(
    benchmarks: Sequence[str],
    n: int = 10,
    threshold: float = 0.10,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    build_latency: int = 100,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> List[RealisticResult]:
    """Figure 7: realistic speed-up with/without pruning and overhead-only.

    The returned metrics snapshots also carry the builder and timeliness
    statistics that Figures 8 and 9 report.
    """
    def config(**overrides: Any) -> SSMTConfig:
        return SSMTConfig(n=n, difficulty_threshold=threshold,
                          build_latency=build_latency, **overrides)

    variants = (
        ("no_pruning", config(pruning=False)),
        ("pruning", config(pruning=True)),
        ("overhead", config(pruning=False, use_predictions=False)),
    )
    tasks: List[SweepTask] = []
    for name in benchmarks:
        tasks.append(SweepTask(kind="baseline", benchmark=name,
                               instructions=trace_length))
        for label, cfg in variants:
            tasks.append(SweepTask(kind="ssmt", benchmark=name,
                                   instructions=trace_length,
                                   label=label, config=cfg))
    grid = _run_grid(tasks, jobs, cache_dir)
    results: List[RealisticResult] = []
    stride = 1 + len(variants)
    for b, name in enumerate(benchmarks):
        base, no_prune, prune, overhead = grid[b * stride:(b + 1) * stride]
        base_ipc = point_ipc(base)
        results.append(RealisticResult(
            benchmark=name,
            baseline_ipc=base_ipc,
            speedup_no_pruning=point_ipc(no_prune) / base_ipc,
            speedup_pruning=point_ipc(prune) / base_ipc,
            speedup_overhead_only=point_ipc(overhead) / base_ipc,
            no_pruning_metrics=no_prune["metrics"] or {},
            pruning_metrics=prune["metrics"] or {},
        ))
    return results


def figure8_routines(
    realistic: List[RealisticResult],
) -> Dict[str, Dict[str, float]]:
    """Figure 8: mean routine size and longest dependence chain, ±pruning.

    Consumes the metrics snapshots from :func:`figure7_realistic`.
    Returns ``{benchmark: {size_np, size_p, chain_np, chain_p}}``.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for r in realistic:
        np_builder = r.no_pruning_metrics["builder"]
        p_builder = r.pruning_metrics["builder"]
        rows[r.benchmark] = {
            "size_no_pruning": np_builder["mean_routine_size"],
            "size_pruning": p_builder["mean_routine_size"],
            "chain_no_pruning": np_builder["mean_chain_length"],
            "chain_pruning": p_builder["mean_chain_length"],
        }
    return rows


def figure9_timeliness(
    realistic: List[RealisticResult],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 9: prediction arrival breakdown (early/late/useless), ±pruning.

    ``late`` aggregates the engine's late_agree/late_useful/late_harmful
    kinds.  Fractions are of predictions that reached their branch
    ("useless does not include predictions for branches never reached").
    """
    def breakdown(metrics: Dict[str, Any]) -> Dict[str, float]:
        kinds = metrics.get("prediction_kinds", {})
        early = kinds.get("early", 0)
        late = (kinds.get("late_agree", 0) + kinds.get("late_useful", 0)
                + kinds.get("late_harmful", 0))
        useless = kinds.get("useless", 0)
        total = early + late + useless
        if not total:
            return {"early": 0.0, "late": 0.0, "useless": 0.0, "total": 0}
        return {
            "early": early / total,
            "late": late / total,
            "useless": useless / total,
            "total": total,
        }

    return {
        r.benchmark: {
            "no_pruning": breakdown(r.no_pruning_metrics),
            "pruning": breakdown(r.pruning_metrics),
        }
        for r in realistic
    }


def geometric_mean_speedup(speedups: Dict[str, float]) -> float:
    """Geometric mean over a per-benchmark speed-up dict."""
    return statistics.geometric_mean(list(speedups.values()))


def mean_speedup_percent(speedups: Dict[str, float]) -> float:
    """Arithmetic mean gain in percent (the paper reports '8.4%')."""
    return 100.0 * (statistics.mean(list(speedups.values())) - 1.0)
