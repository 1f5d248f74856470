"""Grid construction and sweep-level result merging.

:func:`build_grid` expands a (benchmarks x machine-widths x config
settings) grid into :class:`SweepTask` points, one ``baseline`` task per
(benchmark, machine) so every mechanism point has a speed-up
denominator.  :func:`merge_sweep` aggregates the per-point payloads the
runner returns into one versioned artifact.

Merged-report schema (``repro.sweep/1``)::

    {
      "schema": "repro.sweep/1",
      "context": {...},            # grid description + runner accounting
      "points": [{...}, ...],      # per-point payloads (+ "speedup")
      "aggregates": {              # per config label, over benchmarks
        "<label>": {"mean_speedup": float, "geomean_speedup": float,
                     "per_benchmark": {bench: speedup}},
      },
      "failures": {task_key: reason}
    }

``aggregates`` doubles as the BENCH-style trajectory row set: the CLI
writes it through ``repro.telemetry.write_bench_json`` so sweep results
land in the same ``repro.bench/1`` trajectory as the other benchmarks.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.ssmt import SSMTConfig
from repro.parallel.taskkey import SweepTask, canonical_json
from repro.parallel.worker import point_ipc
from repro.schemas import schema_string
from repro.uarch.config import TABLE3_BASELINE, MachineConfig

if TYPE_CHECKING:  # pragma: no cover — keeps repro.branch.zoo unimported
    from repro.branch.zoo.config import PredictorConfig

#: Schema of the merged sweep-level artifact.
SWEEP_SCHEMA = schema_string("repro.sweep", 1)


def parse_knob_value(knob: str, raw: str) -> Any:
    """Parse a CLI string for an :class:`SSMTConfig` field by its type."""
    for f in dataclasses.fields(SSMTConfig):
        if f.name == knob:
            default = getattr(SSMTConfig(), knob)
            if isinstance(default, bool):
                lowered = raw.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
                raise ValueError(f"{knob}: not a boolean: {raw!r}")
            if isinstance(default, int):
                return int(raw)
            if isinstance(default, float):
                return float(raw)
            return raw
    raise ValueError(f"SSMTConfig has no knob {knob!r}")


def build_grid(
    benchmarks: Sequence[str],
    instructions: int,
    base_config: Optional[SSMTConfig] = None,
    knob: Optional[str] = None,
    values: Sequence[Any] = (),
    widths: Sequence[int] = (),
    machine: MachineConfig = TABLE3_BASELINE,
    predictor: Optional["PredictorConfig"] = None,
) -> List[SweepTask]:
    """Expand benchmarks x widths x knob-settings into sweep tasks.

    With no ``knob`` the grid holds one default-config point per
    (benchmark, machine); with no ``widths`` the given ``machine`` is
    used as-is.  Every (benchmark, machine) pair also gets a
    ``baseline`` task (deduped by key if repeated across grids).
    ``predictor`` swaps the hardware direction predictor of every point
    (baselines included) for a zoo baseline; ``None`` keeps the paper's
    hybrid.
    """
    base_config = base_config or SSMTConfig()
    if knob is not None and not hasattr(base_config, knob):
        raise ValueError(f"SSMTConfig has no knob {knob!r}")
    machines: List[Tuple[str, MachineConfig]] = (
        [(f"w={w}", machine.scaled(fetch_width=w, issue_width=w,
                                   retire_width=w)) for w in widths]
        if widths else [("", machine)])
    settings: List[Tuple[str, SSMTConfig]] = (
        [(f"{knob}={v}", dataclasses.replace(base_config, **{knob: v}))
         for v in values]
        if knob is not None else [("ssmt", base_config)])

    tasks: List[SweepTask] = []
    for mlabel, mconfig in machines:
        for name in benchmarks:
            blabel = "|".join(part for part in ("baseline", mlabel) if part)
            tasks.append(SweepTask(kind="baseline", benchmark=name,
                                   instructions=instructions,
                                   label=blabel, machine=mconfig,
                                   predictor=predictor))
        for slabel, config in settings:
            label = "|".join(part for part in (slabel, mlabel) if part)
            for name in benchmarks:
                tasks.append(SweepTask(kind="ssmt", benchmark=name,
                                       instructions=instructions,
                                       label=label, config=config,
                                       machine=mconfig,
                                       predictor=predictor))
    return tasks


def _baseline_index(points: Sequence[Dict[str, Any]]) -> Dict[Tuple[str, str, int], float]:
    """Baseline IPC keyed by (benchmark, canonical machine, length)."""
    out: Dict[Tuple[str, str, int], float] = {}
    for p in points:
        if p["kind"] == "baseline":
            out[(p["benchmark"], canonical_json(p["machine"]),
                 p["instructions"])] = point_ipc(p)
    return out


def merge_sweep(results: Sequence[Optional[Dict[str, Any]]],
                context: Optional[Dict[str, Any]] = None,
                errors: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    """Aggregate runner results into one ``repro.sweep/1`` artifact.

    Each non-baseline point gains a ``speedup`` field (its IPC over the
    matching baseline's, when that baseline is present in the sweep).
    Aggregates are computed per label over benchmarks with a speed-up.
    """
    points: List[Dict[str, Any]] = [dict(r) for r in results
                                    if r is not None]
    baselines = _baseline_index(points)
    per_label: Dict[str, Dict[str, float]] = {}
    for p in points:
        if p["kind"] == "baseline":
            continue
        base_ipc = baselines.get((p["benchmark"],
                                  canonical_json(p["machine"]),
                                  p["instructions"]))
        if base_ipc:
            p["speedup"] = round(point_ipc(p) / base_ipc, 6)
            per_label.setdefault(p["label"], {})[p["benchmark"]] = \
                p["speedup"]

    aggregates: Dict[str, Dict[str, Any]] = {}
    for label in sorted(per_label):
        speedups = per_label[label]
        values = list(speedups.values())
        aggregates[label] = {
            "mean_speedup": round(statistics.mean(values), 6),
            "geomean_speedup": round(statistics.geometric_mean(values), 6),
            "per_benchmark": dict(sorted(speedups.items())),
        }

    return {
        "schema": SWEEP_SCHEMA,
        "context": dict(context or {}),
        "points": points,
        "aggregates": aggregates,
        "failures": dict(errors or {}),
    }
