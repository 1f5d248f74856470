"""Sampled simulation: detailed windows + functional fast-forward.

SMARTS/SimPoint-style systematic sampling over the fused loop: the
trace is divided into periods of ``interval`` instructions; each period
runs ``warmup`` instructions in full detail (training predictors,
warming caches and the SSMT structures, excluded from measurement),
then ``measure`` instructions in full detail whose cycle and event
deltas are recorded, and fast-forwards the remainder *functionally* —
the hardware direction predictor still trains on every branch, cache
tags still turn over on every load/store, the engine's architectural
register/memory view and Path_History keep advancing — but no cycles
are modelled and no SSMT training/spawning happens.

The measured deltas are extrapolated to the full trace length into an
ordinary :class:`~repro.uarch.timing.TimingResult` whose ``sample``
attribute records the sampling parameters and coverage (the attribute
is *not* part of ``as_dict()``, so exact-mode payload layouts are
untouched; the sweep worker marks sampled payloads explicitly).

When sampling is sound
----------------------
Extrapolation assumes the measured windows are representative — true
for the suite's stationary synthetic workloads once per-period warm-up
covers predictor/cache cold-start (the default 2000-instruction warmup
does).  Phase-changing workloads need intervals short enough to sample
every phase.  Mechanism state that *matures* over a run (Path Cache
difficulty training, MicroRAM contents) only advances during detailed
windows, so SSMT-mode sampling sees a mechanism trained on roughly the
detailed fraction of the trace; mispredict-rate error bounds observed
on the suite are documented in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTEngine
from repro.kernel.batched import BatchedOoOTimingModel, _RunState
from repro.kernel.columns import (
    HAS_DEST,
    HAS_EA,
    IS_CONTROL,
    IS_LOAD,
    IS_STORE,
    IS_TAKEN,
    predecode,
)
from repro.sim.trace import Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.timing import TimingResult


@dataclass(frozen=True)
class SampleSpec:
    """Sampling parameters.

    ``interval`` is the period length in instructions; each period runs
    ``warmup`` detailed warm-up instructions (unmeasured) followed by
    ``measure`` measured instructions (``0`` resolves to
    ``max(1, interval // 10)``), and fast-forwards the rest.
    """

    interval: int
    warmup: int = 2000
    measure: int = 0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("sample interval must be positive")
        if self.warmup < 0 or self.measure < 0:
            raise ValueError("warmup/measure must be non-negative")
        if self.measure == 0:
            object.__setattr__(self, "measure",
                               max(1, self.interval // 10))
        if self.warmup + self.measure > self.interval:
            raise ValueError(
                f"warmup ({self.warmup}) + measure ({self.measure}) must "
                f"fit in the interval ({self.interval})")


_KIND_NAMES = ("early", "late_agree", "late_useful", "late_harmful",
               "useless")


def _counter_snapshot(result: TimingResult) -> Dict[str, int]:
    kinds = result.prediction_kinds
    snap = {
        "hw_mispredicts": result.hw_mispredicts,
        "effective_mispredicts": result.effective_mispredicts,
        "early_recoveries": result.early_recoveries,
        "btb_bubbles": result.btb_bubbles,
        "conditional_branches": result.conditional_branches,
        "indirect_branches": result.indirect_branches,
    }
    for kind in _KIND_NAMES:
        snap["kind:" + kind] = kinds.get(kind, 0)
    return snap


def run_sampled(trace: Trace, predictor: BranchPredictorComplex,
                spec: SampleSpec,
                machine: MachineConfig = TABLE3_BASELINE,
                engine: Optional[SSMTEngine] = None) -> TimingResult:
    """Run ``trace`` sampled; returns an extrapolated ``TimingResult``.

    ``engine=None`` samples the plain baseline machine; passing an
    :class:`SSMTEngine` samples the full mechanism (detailed windows
    drive it exactly like an exact run).
    """
    model = BatchedOoOTimingModel(machine)
    columns = predecode(trace)
    n = columns.n
    result = TimingResult(name=trace.name, cache=model.caches.stats)
    model.result = result
    model.predictor = predictor
    state = _RunState(model.config.window_size, result)
    if engine is not None:
        engine.on_run_start(model, trace)

    measured_instructions = 0
    measured_cycles = 0
    accumulated: Dict[str, int] = {}
    windows = 0
    pos = 0
    while pos < n:
        measure_start = min(pos + spec.warmup, n)
        measure_end = min(measure_start + spec.measure, n)
        period_end = min(pos + spec.interval, n)
        if measure_start > pos:  # detailed warm-up (unmeasured)
            model.run_span(columns, predictor, engine, state,
                           pos, measure_start)
        if measure_end > measure_start:
            before = _counter_snapshot(result)
            cycles_before = state.last_retire
            model.run_span(columns, predictor, engine, state,
                           measure_start, measure_end)
            after = _counter_snapshot(result)
            measured_instructions += measure_end - measure_start
            measured_cycles += state.last_retire - cycles_before
            for key, value in after.items():
                accumulated[key] = (accumulated.get(key, 0)
                                    + value - before[key])
            windows += 1
        if period_end > measure_end:
            _fast_forward(model, columns, predictor, engine, state,
                          measure_end, period_end)
        pos = period_end

    if measured_instructions in (0, n):
        # Degenerate spec (warmup covers everything, or nothing was
        # skipped): the run was effectively exact.
        result.instructions = n
        result.cycles = state.last_retire + 1
        scale = 1.0
    else:
        scale = n / measured_instructions
        result.instructions = n
        result.cycles = max(1, round(measured_cycles * scale))
        result.hw_mispredicts = round(
            accumulated["hw_mispredicts"] * scale)
        result.effective_mispredicts = round(
            accumulated["effective_mispredicts"] * scale)
        result.early_recoveries = round(
            accumulated["early_recoveries"] * scale)
        result.btb_bubbles = round(accumulated["btb_bubbles"] * scale)
        result.conditional_branches = round(
            accumulated["conditional_branches"] * scale)
        result.indirect_branches = round(
            accumulated["indirect_branches"] * scale)
        result.prediction_kinds = {
            kind: round(accumulated["kind:" + kind] * scale)
            for kind in _KIND_NAMES
            if accumulated.get("kind:" + kind, 0)
        }
    result.sample = {
        "interval": spec.interval,
        "warmup": spec.warmup,
        "measure": spec.measure,
        "windows": windows,
        "measured_instructions": measured_instructions,
        "measured_fraction": round(measured_instructions / n, 6) if n else 0.0,
        "scale": round(scale, 6),
    }
    if engine is not None:
        engine.on_run_end(result, model)
    return result


def _fast_forward(model: BatchedOoOTimingModel, columns, predictor,
                  engine: Optional[SSMTEngine], state: _RunState,
                  lo: int, hi: int) -> None:
    """Functionally execute ``[lo, hi)`` without timing.

    Warms exactly the state the next detailed window depends on: the
    hardware direction predictor (trained on every branch), the cache
    hierarchy's tag state, and — with an engine attached — the
    architectural register/memory view and the Path_History window.
    SSMT training, spawning and the PRB are deliberately *not* advanced
    (no cycles exist to time them against); the per-period warm-up
    re-establishes their short-horizon state.
    """
    if hi <= lo:
        return
    (flags, pcs, ops, dests, src1s, src2s, nsrcs, imms, eas,
     results_col, next_pcs) = columns.lists()
    records = columns.records
    caches = model.caches
    load_latency = caches.load_latency
    cache_store = caches.store
    predictor_process = predictor.process
    when = state.last_retire
    if engine is not None:
        tracker_append = engine.tracker._append
        reg_values = engine.reg_values
        memory = engine.memory
    for idx in range(lo, hi):
        f = flags[idx]
        if f & IS_CONTROL:
            predictor_process(records[idx])
            if engine is not None and f & IS_TAKEN:
                tracker_append(pcs[idx], idx)
        elif f & IS_LOAD:
            load_latency(eas[idx], when)
        elif f & IS_STORE:
            cache_store(eas[idx])
        if engine is not None:
            if f & HAS_DEST:
                reg_values[dests[idx]] = results_col[idx]
            if f & IS_STORE and f & HAS_EA:
                memory[eas[idx]] = results_col[idx]
    last = flags[hi - 1]
    state.prev_was_taken = bool(last & IS_CONTROL and last & IS_TAKEN)
