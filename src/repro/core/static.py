"""Profile-guided (compile-time) difficult-path microthreading.

The paper focuses on the hardware-only implementation but notes that
"compile-time implementations, which we have also investigated, are
outside the scope of this paper" (§4).  This module supplies that
variant as an extension:

1. :func:`profile_difficult_paths` — offline profiling pass with an
   *unbounded* path table (the compiler is not limited to an 8K-entry
   Path Cache — exactly the advantage the paper ascribes to compile-time
   identification in §5.2's future-work discussion).
2. :func:`prebuild_microthreads` — a second pass over the profiling
   trace that builds one routine per selected path, producing a static
   MicroRAM image.
3. :func:`run_profile_guided` — runs :class:`~repro.core.ssmt.SSMTEngine`
   over that image: no Path Cache training, no builder, no build
   latency and no warm-up ramp; spawning, aborts, violations and the
   Prediction Cache work exactly as in the dynamic engine (a violated
   routine is simply dropped, since there is no builder to rebuild it).

Both offline passes are fused-loop runs whose ``engine.path_sink``
takes each retired path instead of the Path Cache, so nothing spawns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.branch.unit import BranchPredictorComplex
from repro.core.microthread import Microthread
from repro.core.path import PathEvent, PathKey
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_engine
from repro.sim.trace import Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.timing import TimingResult


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
    stats: Dict[PathKey, List[int]] = {}

    def tally(event: PathEvent, mispredicted: bool,
              retire_cycle: int) -> None:
        if event.branch_idx >= warmup:
            counts = stats.setdefault(event.key, [0, 0])
            counts[0] += 1
            counts[1] += mispredicted

    engine = SSMTEngine(SSMTConfig(n=n))
    engine.path_sink = tally
    engine.trains = False  # nothing is built, so nothing reads training
    run_engine(trace, engine, predictor=predictor)

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
    engine = SSMTEngine(config, trace.initial_memory)
    builder, prb = engine.builder, engine.prb
    seen = {p.key: 0 for p in paths}
    threads: Dict[PathKey, Microthread] = {}
    warmup = len(trace) // 4

    def build(event: PathEvent, mispredicted: bool,
              retire_cycle: int) -> None:
        key = event.key
        if event.branch_idx < warmup or key not in seen or key in threads:
            return
        seen[key] += 1
        if seen[key] < build_instance:
            return
        builder.busy_until = 0  # offline build: latency is irrelevant
        thread = builder.request(event, prb, 0)
        if thread is not None:
            thread.available_cycle = 0
            threads[key] = thread

    engine.path_sink = build
    run_engine(trace, engine)
    return list(threads.values())


def run_profile_guided(
    trace: Trace,
    config: Optional[SSMTConfig] = None,
    machine: MachineConfig = TABLE3_BASELINE,
    max_routines: Optional[int] = None,
    profile_trace: Optional[Trace] = None,
) -> Tuple[TimingResult, SSMTEngine]:
    """Profile, prebuild, then run the engine over the image on ``trace``.

    ``profile_trace`` allows profiling on a different (training) input,
    as a compiler would; it defaults to ``trace`` itself.
    """
    config = config or SSMTConfig()
    source = profile_trace if profile_trace is not None else trace
    paths = profile_difficult_paths(source, n=config.n,
                                    threshold=config.difficulty_threshold)
    if max_routines is not None:
        paths = paths[:max_routines]
    threads = prebuild_microthreads(source, paths, config)
    engine = SSMTEngine(config, initial_memory=trace.initial_memory,
                        image=threads)
    return run_engine(trace, engine, machine), engine
