"""The paper's contribution: difficult-path microthread branch prediction.

Subsystem map (paper section in parentheses):

* :mod:`repro.core.path` — ``Path_Id`` shift-XOR hashing and the
  front-end path history tracker (§3).
* :mod:`repro.core.path_cache` — the Path Cache: training intervals,
  Difficult/Promoted bits, allocate-on-mispredict, difficulty-aware LRU
  (§4.1, §4.2.1).
* :mod:`repro.core.prb` — Post-Retirement Buffer with dependence links
  (§4.2.2).
* :mod:`repro.core.microthread` — microthread routine objects.
* :mod:`repro.core.mcb` — Microthread Construction Buffer optimizations:
  move elimination, constant propagation (§4.2.3) and pruning (§4.2.5).
* :mod:`repro.core.builder` — the Microthread Builder: data-flow tree
  extraction, termination rules, memory-dependence speculation, spawn
  point selection (§4.2.2, §4.2.4).
* :mod:`repro.core.microram` — MicroRAM routine store (§4.3.1).
* :mod:`repro.core.prediction_cache` — the Prediction Cache keyed by
  ``(Path_Id, Seq_Num)`` (§4.3.3).
* :mod:`repro.core.spawn` — microcontexts, spawn filtering and the
  ``Path_History`` abort mechanism (§4.3.1, §4.3.2).
* :mod:`repro.core.ssmt` — the full SSMT engine wired into the timing
  model, plus configuration (§4, §5).
* :mod:`repro.core.oracle` — the perfect difficult-path predictor used
  for the potential study (Figure 6), an engine variant chosen by
  passing a :class:`PotentialConfig`.
* :mod:`repro.core.static` — the profile-guided (compile-time) variant:
  offline profiling and prebuilding of a fixed MicroRAM image.
"""

from repro.core.path import (
    PathKey,
    PathEvent,
    PathTracker,
    path_id_hash,
)
from repro.core.path_cache import PathCache, PathCacheConfig, PromotionEvent
from repro.core.prb import PostRetirementBuffer, PRBEntry
from repro.core.microthread import Microthread, MicroOp
from repro.core.builder import MicrothreadBuilder, BuilderConfig, BuildStats
from repro.core.microram import MicroRAM
from repro.core.prediction_cache import PredictionCache
from repro.core.spawn import SpawnManager, SpawnStats
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_ssmt
from repro.core.oracle import PotentialConfig, run_potential
from repro.core.static import (
    ProfiledPath,
    prebuild_microthreads,
    profile_difficult_paths,
    run_profile_guided,
)
from repro.core.events import Event, EventLog

__all__ = [
    "PathKey",
    "PathEvent",
    "PathTracker",
    "path_id_hash",
    "PathCache",
    "PathCacheConfig",
    "PromotionEvent",
    "PostRetirementBuffer",
    "PRBEntry",
    "Microthread",
    "MicroOp",
    "MicrothreadBuilder",
    "BuilderConfig",
    "BuildStats",
    "MicroRAM",
    "PredictionCache",
    "SpawnManager",
    "SpawnStats",
    "SSMTConfig",
    "SSMTEngine",
    "run_ssmt",
    "PotentialConfig",
    "run_potential",
    "ProfiledPath",
    "prebuild_microthreads",
    "profile_difficult_paths",
    "run_profile_guided",
    "Event",
    "EventLog",
]
