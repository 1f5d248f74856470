"""Potential study: perfect prediction of difficult-path branches.

Figure 6 of the paper measures the speed-up available if the terminating
branch of every *promoted* difficult path were predicted perfectly — with
realistic difficult-path identification (an 8K-entry Path Cache, a
training interval of 32, and a MicroRAM-sized bound on concurrently
promoted paths) but idealized microthreads (always correct, always early,
zero overhead).

:class:`PotentialEngine` is the full SSMT engine with the microthread
machinery swapped for an oracle: the same path tracking and Path Cache
training pick the difficult paths, and a prediction for a promoted path
is always correct and always early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.branch.unit import BranchPredictorComplex
from repro.core.path import PathEvent, PathKey, DEFAULT_PATH_ID_BITS
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.sim.trace import Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.timing import PredictionEntry, TimingResult


@dataclass
class PotentialConfig:
    n: int = 10
    difficulty_threshold: float = 0.10
    path_id_bits: int = DEFAULT_PATH_ID_BITS
    path_cache_entries: int = 8192
    path_cache_assoc: int = 8
    training_interval: int = 32
    #: bound on concurrently promoted paths (the MicroRAM size).
    promoted_capacity: int = 8192


class PotentialEngine(SSMTEngine):
    """Oracle predictions for promoted difficult paths; zero overhead.

    A bounded, LRU-stamped set of promoted paths replaces the builder
    and MicroRAM, so no microthread is ever built or spawned.
    """

    def __init__(self, config: Optional[PotentialConfig] = None):
        self.potential = config or PotentialConfig()
        cfg = self.potential
        super().__init__(SSMTConfig(
            n=cfg.n,
            difficulty_threshold=cfg.difficulty_threshold,
            path_id_bits=cfg.path_id_bits,
            path_cache_entries=cfg.path_cache_entries,
            path_cache_assoc=cfg.path_cache_assoc,
            training_interval=cfg.training_interval,
        ))
        self._promoted: Dict[PathKey, int] = {}
        self._stamp = 0
        self.oracle_predictions = 0

    def lookup_prediction(self, idx: int, rec,
                          fetch_cycle: int) -> Optional[PredictionEntry]:
        key = PathKey(rec.pc, self.tracker.current_branches())
        if key not in self._promoted:
            return None
        self.oracle_predictions += 1
        self._stamp += 1
        self._promoted[key] = self._stamp
        # Perfect and early: arrival before fetch.
        return PredictionEntry(rec.taken, rec.next_pc, arrival_cycle=0)

    def _promote(self, event: PathEvent, now_cycle: int) -> None:
        if len(self._promoted) >= self.potential.promoted_capacity:
            victim = min(self._promoted, key=self._promoted.get)
            del self._promoted[victim]
            self.path_cache.mark_promoted(
                victim, victim.path_id(self.potential.path_id_bits), False
            )
        self._stamp += 1
        self._promoted[event.key] = self._stamp
        self.path_cache.mark_promoted(event.key, event.path_id, True)

    def _demote(self, key: PathKey, path_id: int) -> None:
        self._promoted.pop(key, None)
        self.path_cache.mark_promoted(key, path_id, False)

    @property
    def promoted_count(self) -> int:
        return len(self._promoted)


def run_potential(
    trace: Trace,
    config: Optional[PotentialConfig] = None,
    machine: MachineConfig = TABLE3_BASELINE,
    predictor: Optional[BranchPredictorComplex] = None,
) -> Tuple[TimingResult, PotentialEngine]:
    """Figure 6 potential run: oracle difficult-path prediction.

    The import is deferred: :mod:`repro.kernel` imports this module.
    """
    from repro.kernel.batched import OoOTimingModel

    engine = PotentialEngine(config)
    model = OoOTimingModel(machine)
    predictor = predictor if predictor is not None else BranchPredictorComplex()
    result = model.run(trace, predictor, engine)
    return result, engine
