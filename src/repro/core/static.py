"""Profile-guided (compile-time) difficult-path microthreading.

The paper focuses on the hardware-only implementation but notes that
"compile-time implementations, which we have also investigated, are
outside the scope of this paper" (§4).  This module supplies that
variant as an extension:

1. :func:`profile_difficult_paths` — offline profiling pass with an
   *unbounded* path table (the compiler is not limited to an 8K-entry
   Path Cache — exactly the advantage the paper ascribes to compile-time
   identification in §5.2's future-work discussion).
2. :func:`prebuild_microthreads` — a second pass that replays the
   profiling trace through the PRB/trainer and builds one routine per
   selected path, producing a static MicroRAM image.
3. :class:`StaticSSMTEngine` — the runtime engine with the MicroRAM
   preloaded and runtime promotion disabled: no Path Cache training, no
   builder, no build latency and no warm-up ramp; spawning, aborts,
   violations and the Prediction Cache work exactly as in the dynamic
   engine (a violated routine is simply dropped, since there is no
   builder to rebuild it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.branch.unit import BranchPredictorComplex
from repro.core.builder import MicrothreadBuilder
from repro.core.microthread import Microthread
from repro.core.path import PathEvent, PathKey, PathTracker
from repro.core.prb import PostRetirementBuffer
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.sim.trace import Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.timing import TimingResult
from repro.valuepred import PredictorTrainer


@dataclass
class ProfiledPath:
    """One difficult path discovered by offline profiling."""

    key: PathKey
    occurrences: int
    mispredicts: int

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.occurrences if self.occurrences else 0.0


def profile_difficult_paths(
    trace: Trace,
    n: int = 10,
    threshold: float = 0.10,
    min_occurrences: int = 8,
    warmup: Optional[int] = None,
    predictor: Optional[BranchPredictorComplex] = None,
) -> List[ProfiledPath]:
    """Offline pass: find every path whose terminating branch mispredicts
    above ``threshold``, with no table-capacity limits.

    Returns paths sorted by misprediction count (most damaging first) so
    callers can cap the static MicroRAM budget meaningfully.
    """
    if warmup is None:
        warmup = len(trace) // 4
    unit = predictor if predictor is not None else BranchPredictorComplex()
    tracker = PathTracker(n)
    stats: Dict[PathKey, List[int]] = {}
    for idx, rec in enumerate(trace.records):
        if not rec.inst.is_control:
            continue
        outcome = unit.process(rec)
        event = tracker.observe(rec, idx)
        if event is None or event.partial or idx < warmup:
            continue
        tally = stats.setdefault(event.key, [0, 0])
        tally[0] += 1
        tally[1] += outcome.mispredicted

    selected = [
        ProfiledPath(key, occurrences, mispredicts)
        for key, (occurrences, mispredicts) in stats.items()
        if occurrences >= min_occurrences
        and mispredicts / occurrences > threshold
    ]
    selected.sort(key=lambda p: p.mispredicts, reverse=True)
    return selected


def prebuild_microthreads(
    trace: Trace,
    paths: List[ProfiledPath],
    config: Optional[SSMTConfig] = None,
    build_instance: int = 2,
) -> List[Microthread]:
    """Second profiling pass: build one routine per selected path.

    ``build_instance`` selects which post-warm-up dynamic occurrence of a
    path to build from (later instances see warmer value predictors).
    Routines come back with ``available_cycle == 0`` — a static image.
    """
    config = config or SSMTConfig()
    wanted = {p.key for p in paths}
    seen_counts: Dict[PathKey, int] = {}
    tracker = PathTracker(config.n, config.path_id_bits)
    prb = PostRetirementBuffer(config.prb_capacity)
    trainer = PredictorTrainer()
    builder = MicrothreadBuilder(config.builder_config())
    threads: Dict[PathKey, Microthread] = {}

    warmup = len(trace) // 4
    for idx, rec in enumerate(trace.records):
        flags = trainer.observe(rec)
        prb.insert(rec, idx, *flags)
        event = tracker.observe(rec, idx)
        if event is None or event.partial or idx < warmup:
            continue
        key = event.key
        if key not in wanted or key in threads:
            continue
        seen_counts[key] = seen_counts.get(key, 0) + 1
        if seen_counts[key] < build_instance:
            continue
        builder.busy_until = 0  # offline build: latency is irrelevant
        thread = builder.request(event, prb, now_cycle=0)
        if thread is not None:
            thread.available_cycle = 0
            threads[key] = thread
    return list(threads.values())


class StaticSSMTEngine(SSMTEngine):
    """Runtime engine with a preloaded, fixed MicroRAM.

    Promotion, demotion and rebuilds are disabled; everything downstream
    of the MicroRAM (spawn filtering, microcontexts, aborts, violations,
    the Prediction Cache and early/late recovery) is inherited unchanged.
    """

    def __init__(self, threads: List[Microthread],
                 config: Optional[SSMTConfig] = None,
                 initial_memory: Optional[Dict[int, int]] = None):
        super().__init__(config, initial_memory)
        for thread in threads:
            self.microram.insert(thread)

    def _retire_store_violation(self, idx: int, rec,
                                retire_cycle: int) -> None:
        """A violated routine is dropped: there is no builder to rebuild
        it."""
        for violated in self.spawner.on_store_retired(rec.ea, idx,
                                                      retire_cycle):
            self.prediction_cache.invalidate_writer(violated)
            self.microram.remove(violated.thread.key)

    def _retire_path_event(self, event: PathEvent, mispredicted: bool,
                           retire_cycle: int) -> None:
        """No Path Cache training: the MicroRAM image is fixed."""


def run_profile_guided(
    trace: Trace,
    config: Optional[SSMTConfig] = None,
    machine: MachineConfig = TABLE3_BASELINE,
    max_routines: Optional[int] = None,
    profile_trace: Optional[Trace] = None,
) -> Tuple[TimingResult, StaticSSMTEngine]:
    """Profile, prebuild, then run the static engine over ``trace``.

    ``profile_trace`` allows profiling on a different (training) input,
    as a compiler would; it defaults to ``trace`` itself.  The timing
    model import is deferred because :mod:`repro.kernel` imports
    :mod:`repro.core`.
    """
    from repro.kernel.batched import OoOTimingModel

    config = config or SSMTConfig()
    source = profile_trace if profile_trace is not None else trace
    paths = profile_difficult_paths(source, n=config.n,
                                    threshold=config.difficulty_threshold)
    if max_routines is not None:
        paths = paths[:max_routines]
    threads = prebuild_microthreads(source, paths, config)
    engine = StaticSSMTEngine(threads, config,
                              initial_memory=trace.initial_memory)
    model = OoOTimingModel(machine)
    result = model.run(trace, BranchPredictorComplex(), engine)
    return result, engine
