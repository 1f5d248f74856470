"""The predictor arena: SSMT headroom vs. baseline predictor strength.

The paper's evaluation measures subordinate-microthread speed-ups over
one hardware baseline: the 2002 gshare/PAs hybrid.  The obvious threat
to validity, twenty years on, is that a stronger baseline leaves fewer
mispredictions for microthreads to eliminate.  The arena quantifies
exactly that: it re-runs the figure-6/7/9 pipeline once per registered
zoo baseline (:data:`repro.branch.zoo.ARENA_BASELINES` — the paper
hybrid, TAGE-lite, a hashed perceptron, and an H2P-augmented TAGE) and
emits one versioned artifact relating baseline strength to remaining
SSMT headroom, plus per-path H2P analytics (:mod:`repro.analysis.h2p`)
showing *which* path regimes each predictor eliminates and what a
representative workload generator should calibrate against.

Every simulation is a :class:`~repro.parallel.SweepTask` routed through
the cached :class:`~repro.parallel.SweepRunner`, so ``--jobs`` fans the
(baseline x benchmark x kind) grid across a process pool and a cache
directory makes re-runs incremental; by the task-key contract the
artifact (outside ``context``) is bit-identical across serial, parallel
and cached executions.

Arena artifact schema (``repro.arena/1``)::

    {
      "schema": "repro.arena/1",
      "context": {...},              # grid description + runner accounting
      "baselines": {                 # per zoo baseline label
        "<label>": {
          "predictor": {...},        # the PredictorConfig, serialised
          "per_benchmark": {
            "<bench>": {"accuracy", "baseline_ipc", "ssmt_speedup",
                         "potential_speedup", "oracle_speedup",
                         "timeliness": {early, late, useless, total}},
          },
        },
      },
      "headroom": {                  # the study, one row per baseline
        "<label>": {"mean_accuracy", "geomean_ssmt_speedup",
                     "geomean_potential_speedup",
                     "geomean_oracle_headroom"},
      },
      "h2p": {                       # per-path analytics (h2p module)
        "<label>": {"<bench>": {profile summary + "vs_reference"}},
      },
      "calibration_targets": {"<bench>": {...}},   # generator feedback
    }
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.events import collect_control_events
from repro.analysis.h2p import (
    PathRegimeProfile,
    calibration_target,
    compare_profiles,
    profile_paths,
)
from repro.core.oracle import PotentialConfig
from repro.core.ssmt import SSMTConfig
from repro.parallel import SweepRunner, SweepTask, point_ipc
from repro.schemas import schema_string
from repro.workloads import benchmark_trace

#: Schema of the arena artifact.
ARENA_SCHEMA = schema_string("repro.arena", 1)

#: Path length for the per-path H2P analytics (the paper's default n).
DEFAULT_PATH_N = 10

#: Baseline whose H2P profile the others are diffed against.
DEFAULT_REFERENCE = "hybrid"

_KINDS_PER_BASELINE = 3  # baseline, ssmt, potential


def _resolve_baselines(
    baselines: Union[None, Sequence[str], Dict[str, Any]],
) -> Dict[str, Any]:
    """Normalise a label list / config dict to ``{label: config}``."""
    from repro.branch.zoo import ARENA_BASELINES

    if baselines is None:
        return dict(ARENA_BASELINES)
    if isinstance(baselines, dict):
        return dict(baselines)
    resolved: Dict[str, Any] = {}
    for label in baselines:
        if label not in ARENA_BASELINES:
            raise ValueError(
                f"unknown arena baseline {label!r}; registered: "
                + ", ".join(sorted(ARENA_BASELINES)))
        resolved[label] = ARENA_BASELINES[label]
    return resolved


def arena_tasks(
    labels: Sequence[str],
    baselines: Dict[str, Any],
    benchmarks: Sequence[str],
    instructions: int,
    ssmt_config: SSMTConfig,
    potential_config: PotentialConfig,
) -> List[SweepTask]:
    """The arena grid: one shared oracle per benchmark, then a
    baseline/ssmt/potential triple per (zoo baseline, benchmark)."""
    tasks: List[SweepTask] = [
        SweepTask(kind="oracle", benchmark=name, instructions=instructions,
                  label="oracle")
        for name in benchmarks
    ]
    for label in labels:
        predictor = baselines[label]
        for name in benchmarks:
            tasks.append(SweepTask(
                kind="baseline", benchmark=name, instructions=instructions,
                label=f"{label}|baseline", predictor=predictor))
            tasks.append(SweepTask(
                kind="ssmt", benchmark=name, instructions=instructions,
                label=f"{label}|ssmt", config=ssmt_config,
                predictor=predictor))
            tasks.append(SweepTask(
                kind="potential", benchmark=name, instructions=instructions,
                label=f"{label}|potential", potential=potential_config,
                predictor=predictor))
    return tasks


def _accuracy(point: Dict[str, Any]) -> float:
    """Direction/target accuracy of a baseline point from its counts."""
    timing = point["timing"]
    branches = (timing["conditional_branches"]
                + timing["indirect_branches"])
    if not branches:
        return 0.0
    return 1.0 - timing["effective_mispredicts"] / branches


def _timeliness(metrics: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Figure 9's arrival breakdown from an ssmt point's metrics."""
    kinds = (metrics or {}).get("prediction_kinds", {})
    early = kinds.get("early", 0)
    late = (kinds.get("late_agree", 0) + kinds.get("late_useful", 0)
            + kinds.get("late_harmful", 0))
    useless = kinds.get("useless", 0)
    total = early + late + useless
    if not total:
        return {"early": 0.0, "late": 0.0, "useless": 0.0, "total": 0}
    return {
        "early": round(early / total, 6),
        "late": round(late / total, 6),
        "useless": round(useless / total, 6),
        "total": total,
    }


def run_arena(
    benchmarks: Sequence[str],
    instructions: int,
    baselines: Union[None, Sequence[str], Dict[str, Any]] = None,
    reference: str = DEFAULT_REFERENCE,
    n: int = 10,
    threshold: float = 0.10,
    path_n: int = DEFAULT_PATH_N,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = True,
) -> Dict[str, Any]:
    """Run the arena and return the ``repro.arena/1`` artifact.

    ``baselines`` defaults to every registered arena baseline; a
    sequence of labels selects a subset, a ``{label: PredictorConfig}``
    dict supplies custom configurations.  Runner accounting (jobs,
    cache hits, elapsed) lands only under ``context`` so the rest of the
    artifact is bit-identical across serial/parallel/cached runs.
    """
    resolved = _resolve_baselines(baselines)
    if not resolved:
        raise ValueError("run_arena needs at least one baseline")
    labels = sorted(resolved)
    reference = reference if reference in resolved else labels[0]

    ssmt_config = SSMTConfig(n=n, difficulty_threshold=threshold)
    potential_config = PotentialConfig(n=n, difficulty_threshold=threshold)
    tasks = arena_tasks(labels, resolved, benchmarks, instructions,
                        ssmt_config, potential_config)
    outcome = SweepRunner(jobs=jobs, cache_dir=cache_dir,
                          resume=resume).run(tasks)
    if outcome.failures:
        raise RuntimeError(
            f"arena sweep failed for {outcome.failures} point(s): "
            f"{outcome.errors}")
    results = [r for r in outcome.results if r is not None]

    # Results are order-aligned with the task grid: oracles first, then
    # per-label (baseline, ssmt, potential) triples per benchmark.
    bench_count = len(benchmarks)
    oracle_ipc = {name: point_ipc(results[i])
                  for i, name in enumerate(benchmarks)}
    per_label: Dict[str, Dict[str, Any]] = {}
    for li, label in enumerate(labels):
        offset = bench_count + li * bench_count * _KINDS_PER_BASELINE
        per_benchmark: Dict[str, Any] = {}
        for bi, name in enumerate(benchmarks):
            base = results[offset + bi * _KINDS_PER_BASELINE]
            ssmt = results[offset + bi * _KINDS_PER_BASELINE + 1]
            potential = results[offset + bi * _KINDS_PER_BASELINE + 2]
            base_ipc = point_ipc(base)
            per_benchmark[name] = {
                "accuracy": round(_accuracy(base), 6),
                "baseline_ipc": round(base_ipc, 6),
                "ssmt_speedup": round(point_ipc(ssmt) / base_ipc, 6),
                "potential_speedup": round(
                    point_ipc(potential) / base_ipc, 6),
                "oracle_speedup": round(oracle_ipc[name] / base_ipc, 6),
                "timeliness": _timeliness(ssmt["metrics"]),
            }
        per_label[label] = {
            "predictor": asdict(resolved[label]),
            "per_benchmark": per_benchmark,
        }

    headroom: Dict[str, Any] = {}
    for label in labels:
        rows = per_label[label]["per_benchmark"].values()
        headroom[label] = {
            "mean_accuracy": round(statistics.mean(
                r["accuracy"] for r in rows), 6),
            "geomean_ssmt_speedup": round(statistics.geometric_mean(
                [r["ssmt_speedup"] for r in rows]), 6),
            "geomean_potential_speedup": round(statistics.geometric_mean(
                [r["potential_speedup"] for r in rows]), 6),
            "geomean_oracle_headroom": round(statistics.geometric_mean(
                [r["oracle_speedup"] for r in rows]), 6),
        }

    # Per-path H2P analytics: one in-process branch-unit pass per
    # (baseline, benchmark) — cheap next to the timing simulations.
    from repro.branch.zoo import make_complex

    profiles: Dict[str, Dict[str, PathRegimeProfile]] = {}
    for label in labels:
        profiles[label] = {}
        for name in benchmarks:
            events = collect_control_events(
                benchmark_trace(name, instructions),
                predictor=make_complex(resolved[label]))
            profiles[label][name] = profile_paths(events, n=path_n)

    h2p: Dict[str, Any] = {}
    for label in labels:
        h2p[label] = {}
        for name in benchmarks:
            summary = profiles[label][name].as_dict()
            if label != reference:
                summary["vs_reference"] = compare_profiles(
                    profiles[reference][name], profiles[label][name])
            h2p[label][name] = summary

    calibration = {
        name: calibration_target(
            {label: profiles[label][name] for label in labels})
        for name in benchmarks
    }

    artifact = {
        "schema": ARENA_SCHEMA,
        "context": {
            "benchmarks": list(benchmarks),
            "instructions": instructions,
            "baselines": labels,
            "reference": reference,
            "n": n,
            "threshold": threshold,
            "path_n": path_n,
            "points": len(tasks),
            "jobs": outcome.jobs,
            "simulated": outcome.simulated,
            "cache_hits": outcome.cache_hits,
            "deduped": outcome.deduped,
            "retries": outcome.retries,
            "elapsed": round(outcome.elapsed, 3),
        },
        "baselines": per_label,
        "headroom": headroom,
        "h2p": h2p,
        "calibration_targets": calibration,
    }
    # Same normalisation as the worker payloads: fresh and cached runs
    # serialise identically.
    normalised: Dict[str, Any] = json.loads(
        json.dumps(artifact, sort_keys=True))
    return normalised
