"""Out-of-order timing model.

A dependency-driven, one-pass timing model of the paper's Table 3
baseline: 16-wide fetch/issue/retire, 512-entry window, 20-cycle total
misprediction penalty, a two-level data cache hierarchy and DRAM.

The model computes per-instruction fetch/dispatch/issue/complete/retire
cycles from data dependences, issue-bandwidth contention and window
occupancy rather than simulating cycle-by-cycle structures.  That is the
standard trade-off for trace-driven studies: absolute IPC differs from a
cycle-accurate simulator, but the first-order effects this paper measures
(misprediction penalties avoided or shortened, execution-bandwidth
contention from microthreads, cache warming) are captured.

The model itself, :class:`repro.kernel.batched.OoOTimingModel`, lives
with its fused retire loop in :mod:`repro.kernel`; the hooks it calls on
an SSMT engine are listed in :mod:`repro.uarch.timing`.
"""

from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.caches import CacheHierarchy, CacheStats
from repro.uarch.timing import TimingResult, PredictionEntry
from repro.uarch.pipeline_view import (
    InstructionTiming,
    record_pipeline,
    render_pipeline,
    summarize_stalls,
)

__all__ = [
    "MachineConfig",
    "TABLE3_BASELINE",
    "CacheHierarchy",
    "CacheStats",
    "TimingResult",
    "PredictionEntry",
    "InstructionTiming",
    "record_pipeline",
    "render_pipeline",
    "summarize_stalls",
]
