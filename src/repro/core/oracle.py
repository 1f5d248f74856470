"""Potential study: perfect prediction of difficult-path branches.

Figure 6 of the paper measures the speed-up available if the terminating
branch of every *promoted* difficult path were predicted perfectly — with
realistic difficult-path identification (an 8K-entry Path Cache, a
training interval of 32, and a MicroRAM-sized bound on concurrently
promoted paths) but idealized microthreads (always correct, always early,
zero overhead).

:func:`run_potential` runs the full :class:`~repro.core.ssmt.SSMTEngine`
given a :class:`PotentialConfig`, which swaps the microthread machinery
for an oracle: the same path tracking and Path Cache training pick the
difficult paths, and a prediction for a promoted path is always correct
and always early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.branch.unit import BranchPredictorComplex
from repro.core.path import DEFAULT_PATH_ID_BITS
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_engine
from repro.sim.trace import Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.timing import TimingResult


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

    def ssmt_config(self) -> SSMTConfig:
        """The engine configuration whose path tracking and Path Cache
        pick the paths the oracle predicts."""
        return SSMTConfig(
            n=self.n,
            difficulty_threshold=self.difficulty_threshold,
            path_id_bits=self.path_id_bits,
            path_cache_entries=self.path_cache_entries,
            path_cache_assoc=self.path_cache_assoc,
            training_interval=self.training_interval,
        )


def run_potential(
    trace: Trace,
    config: Optional[PotentialConfig] = None,
    machine: MachineConfig = TABLE3_BASELINE,
    predictor: Optional[BranchPredictorComplex] = None,
) -> Tuple[TimingResult, SSMTEngine]:
    """Figure 6 potential run: oracle difficult-path prediction."""
    engine = SSMTEngine(potential=config or PotentialConfig())
    return run_engine(trace, engine, machine, predictor), engine
