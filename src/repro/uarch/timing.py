"""Timing results and the engine hooks of the out-of-order timing model.

The model, :class:`repro.kernel.batched.OoOTimingModel`, processes a
retirement trace once, in order, computing each instruction's fetch,
dispatch, issue, completion and retirement cycles (width limits, window
occupancy, shared issue slots, cache latencies, misprediction
redirects) and returns a :class:`TimingResult`.

Engine hooks
------------
A run takes no engine or an :class:`~repro.core.ssmt.SSMTEngine`, whose
methods the loop calls:

``on_run_start(model, trace)`` / ``on_run_end(result, model)``
    around the run — bind and flush run-scoped telemetry.
``on_fetch(idx, rec, fetch_cycle, model)``
    at the fetch of an instruction whose PC has MicroRAM routines (the
    spawn hook).
``lookup_prediction(idx, rec, fetch_cycle)``
    at every path-terminating branch; returns a :class:`PredictionEntry`
    (a microthread prediction with its arrival cycle) or ``None``.
``on_prediction_outcome(idx, rec, kind, used, correct, hw_mispredict)``
    classification feedback: ``kind`` is ``early``, ``late_useful``,
    ``late_harmful``, ``late_agree`` or ``useless``.
``_retire_store_violation`` / ``_retire_taken_control``
    at retirement of a store or taken control with live microthreads.
``on_path_event(event, mispredicted, retire_cycle)``
    at retirement of a complete path (Path Cache training, promotion);
    predictor training, PRB insertion and path tracking are inlined in
    the loop, which skips the first two when ``engine.trains`` is false.

The in-progress result is readable at ``OoOTimingModel.result`` during
a run, and microthread instructions claim the primary thread's issue
slots through ``OoOTimingModel.alloc_issue_slot`` — that is how
microthread overhead (paper §5.3's third bar) arises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.uarch.caches import CacheStats


@dataclass
class PredictionEntry:
    """A microthread prediction as seen by the front-end."""

    __slots__ = ("taken", "target", "arrival_cycle")

    taken: bool
    target: int
    arrival_cycle: int


@dataclass
class TimingResult:
    """Cycle counts and event statistics for one timing run."""

    name: str
    instructions: int = 0
    cycles: int = 0
    # hardware-predictor outcomes (before microthread involvement)
    hw_mispredicts: int = 0
    # effective outcomes after microthread predictions are applied
    effective_mispredicts: int = 0
    early_recoveries: int = 0
    prediction_kinds: Dict[str, int] = field(default_factory=dict)
    btb_bubbles: int = 0
    cache: Optional[CacheStats] = None
    conditional_branches: int = 0
    indirect_branches: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def mispredict_rate(self) -> float:
        total = self.conditional_branches + self.indirect_branches
        return self.effective_mispredicts / total if total else 0.0

    def as_dict(self, include_cache: bool = True) -> Dict[str, object]:
        """Uniform export (telemetry collector surface)."""
        out: Dict[str, object] = {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": round(self.ipc, 6),
            "hw_mispredicts": self.hw_mispredicts,
            "effective_mispredicts": self.effective_mispredicts,
            "mispredict_rate": round(self.mispredict_rate(), 6),
            "early_recoveries": self.early_recoveries,
            "btb_bubbles": self.btb_bubbles,
            "conditional_branches": self.conditional_branches,
            "indirect_branches": self.indirect_branches,
            "prediction_kinds": dict(self.prediction_kinds),
        }
        if include_cache and self.cache is not None:
            out["cache"] = self.cache.as_dict()
        return out
