"""The per-point worker: one simulation in, one plain-JSON payload out.

:func:`run_task` is the function the process pool executes.  It must
stay module-level (picklable by reference) and must return only
JSON-native data, because the same payload is (a) shipped back over the
pool's pipe, (b) persisted by the result cache, and (c) compared
bit-for-bit across serial, parallel, and cached executions.  To
guarantee (c), every freshly computed payload is normalised through a
JSON round-trip before it leaves the worker — a result that was never
cached is byte-identical to one that was.

The payload is ``RunReport``-compatible: its ``config``/``timing``/
``metrics`` sections carry the same shapes (and, for ``metrics``, the
same top-level prefixes) as ``repro.telemetry``'s per-run report, so
sweep-level aggregation and single-run tooling read the same fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.branch.unit import BranchPredictorComplex, oracle_complex
from repro.core.oracle import run_potential
from repro.core.ssmt import SSMTEngine, run_ssmt
from repro.kernel import OoOTimingModel, run_sampled
from repro.parallel.cache import POINT_SCHEMA
from repro.parallel.taskkey import SweepTask
from repro.uarch.timing import TimingResult
from repro.workloads import benchmark_trace


def engine_metrics(engine: SSMTEngine) -> Dict[str, Any]:
    """A serializable snapshot of every engine structure's statistics,
    under the telemetry layer's prefixes (``path_cache``, ``builder``,
    ``spawn``, ``prediction_cache``, ``microram``)."""
    return {
        "path_cache": dict(
            engine.path_cache.stats.as_dict(),
            occupancy=len(engine.path_cache),
            difficult_entries=engine.path_cache.difficult_count(),
        ),
        "builder": engine.builder.stats.as_dict(),
        "spawn": engine.spawner.stats.as_dict(),
        "prediction_cache": engine.prediction_cache.stats.as_dict(),
        "microram": engine.microram.as_dict(),
        "prediction_kinds": dict(engine.prediction_kind_counts),
        "microthread_correct": engine.correct_microthread_predictions,
        "microthread_incorrect": engine.incorrect_microthread_predictions,
        "throttled_paths": engine.throttled_paths,
    }


def point_ipc(payload: Dict[str, Any]) -> float:
    """Full-precision IPC recomputed from the payload's integer counts
    (the rounded ``timing.ipc`` field is for humans)."""
    timing = payload["timing"]
    cycles = timing["cycles"]
    return timing["instructions"] / cycles if cycles else 0.0


def _direction_complex(task: SweepTask) -> BranchPredictorComplex:
    """The predictor complex a task requests.

    The zoo import is deliberately deferred to this branch: a task with
    ``predictor=None`` (the paper's hybrid) never imports
    :mod:`repro.branch.zoo`, keeping the default path zero-cost
    (``tests/test_zoo_zero_cost.py`` pins this down).
    """
    if task.predictor is None:
        return BranchPredictorComplex()
    from repro.branch.zoo import make_complex

    return make_complex(task.predictor)


def run_task(task: SweepTask, telemetry: Optional[Any] = None,
             ) -> Dict[str, Any]:
    """Simulate one sweep point and return its result payload.

    ``telemetry`` (an optional :class:`~repro.telemetry.session.
    TelemetrySession`) is attached to SSMT-kind points only — the other
    kinds run bare timing models with no hook sites.  Telemetry is
    strictly observational, so the returned payload is bit-identical
    with or without it.
    """
    trace = benchmark_trace(task.benchmark, task.instructions)
    metrics: Optional[Dict[str, Any]] = None
    result: TimingResult
    if task.kind == "baseline":
        if task.sample is not None:
            result = run_sampled(trace, _direction_complex(task),
                                 task.sample, machine=task.machine)
        else:
            result = OoOTimingModel(task.machine).run(
                trace, _direction_complex(task))
    elif task.kind == "oracle":
        result = OoOTimingModel(task.machine).run(
            trace, oracle_complex())
    elif task.kind == "potential":
        result, _ = run_potential(trace, task.potential,
                                  machine=task.machine,
                                  predictor=_direction_complex(task))
    else:  # ssmt (validated by SweepTask.__post_init__)
        result, engine = run_ssmt(trace, task.config, machine=task.machine,
                                  predictor=_direction_complex(task),
                                  telemetry=telemetry, sample=task.sample)
        metrics = engine_metrics(engine)
    payload: Dict[str, Any] = {
        "schema": POINT_SCHEMA,
        "task_key": task.key,
        "kind": task.kind,
        "label": task.label,
        "benchmark": task.benchmark,
        "instructions": task.instructions,
        "config": asdict(task.config) if task.config is not None else None,
        "machine": asdict(task.machine),
        "predictor": (asdict(task.predictor)
                      if task.predictor is not None else None),
        "timing": result.as_dict(),
        "metrics": metrics,
    }
    if task.sample is not None:
        # Sampled results are extrapolations: marked explicitly, never
        # shaped like (or cached as) exact payloads — the sample spec is
        # part of the task key.
        payload["sampled"] = True
        payload["sample"] = result.sample
    # Normalise to JSON-native types (tuples -> lists, etc.) so fresh,
    # pooled, and cached payloads compare bit-identically.
    normalised: Dict[str, Any] = json.loads(
        json.dumps(payload, sort_keys=True))
    return normalised


def run_task_traced(task: SweepTask, trace_dir: str) -> Dict[str, Any]:
    """:func:`run_task` plus a per-task ``repro.obs/1`` trace shard.

    Used by traced sweeps via ``functools.partial(run_task_traced,
    trace_dir=...)`` — both pieces pickle by reference/value, so the
    pool ships it like the plain worker.  The :mod:`repro.obs` import is
    deferred into the body: an untraced sweep (the default worker)
    never pays for it, which the zero-cost subprocess test pins down.

    The shard is a *side artifact* keyed by the task's content hash
    (written into ``trace_dir``); the returned payload is byte-identical
    to the untraced worker's, so cached results and task keys are
    unaffected.
    """
    from repro.obs import ObsSession
    from repro.obs.events import PH_COMPLETE
    from repro.obs.sweepobs import write_shard

    session = ObsSession(sample_every=0, trace_spans=True)
    wall_start = time.monotonic()
    payload = run_task(task, telemetry=session)
    dur_us = (time.monotonic() - wall_start) * 1e6
    session.recorder.wall("task_run", ph=PH_COMPLETE, dur=dur_us, ts=0.0,
                          label=task.label, kind=task.kind)
    write_shard(trace_dir, task.key, session.recorder.sorted_events(),
                context={"label": task.label, "kind": task.kind,
                         "benchmark": task.benchmark,
                         "instructions": task.instructions},
                dropped=session.recorder.total_dropped)
    return payload
