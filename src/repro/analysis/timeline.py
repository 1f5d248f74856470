"""Windowed time-series measurement: watching the mechanism learn.

The hardware mechanism ramps: the Path Cache needs a training interval
per path, the builder works one routine at a time, and benefits accrue
as the MicroRAM fills.  :func:`ipc_timeline` measures windowed IPC and
misprediction rate across a run, and :func:`sparkline` renders compact
in-terminal series — used by ``examples/rampup.py`` to visualize the
difference between cold-start dynamic identification and the
profile-guided variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTEngine
from repro.kernel.batched import OoOTimingModel
from repro.sim.trace import Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


@dataclass
class TimelinePoint:
    """One measurement window."""

    start_idx: int
    end_idx: int
    cycles: int
    instructions: int
    mispredicts: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def ipc_timeline(
    trace: Trace,
    window: int = 20_000,
    machine: MachineConfig = TABLE3_BASELINE,
    engine: Optional[SSMTEngine] = None,
) -> List[TimelinePoint]:
    """Windowed IPC and mispredictions over one timing run (optionally
    with an SSMT engine).

    Each whole window is one span of the timing loop; a trailing partial
    window is not timed.
    """
    model = OoOTimingModel(machine)
    state = model.start(trace, BranchPredictorComplex(), engine)
    result = state.result
    points: List[TimelinePoint] = []
    for lo in range(0, len(trace) - window + 1, window):
        cycle, mispredicts = state.last_retire, result.effective_mispredicts
        model.run_span(state, lo, lo + window)
        points.append(TimelinePoint(
            start_idx=lo,
            end_idx=lo + window - 1,
            cycles=max(1, state.last_retire - cycle),
            instructions=window,
            mispredicts=result.effective_mispredicts - mispredicts,
        ))
    return points


def speedup_timeline(
    trace: Trace,
    make_engine: Callable[[], SSMTEngine],
    window: int = 20_000,
    machine: MachineConfig = TABLE3_BASELINE,
) -> List[Tuple[int, float]]:
    """Per-window speed-up of an engine-equipped run over the baseline.

    ``make_engine`` is a zero-argument factory (a fresh engine per
    run).  Returns ``[(window_end_idx, speedup), ...]``.
    """
    base = ipc_timeline(trace, window, machine)
    enhanced = ipc_timeline(trace, window, machine, make_engine())
    series: List[Tuple[int, float]] = []
    for b, e in zip(base, enhanced):
        series.append((b.end_idx, b.cycles / e.cycles))
    return series


def sparkline(values: List[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Render a numeric series as a unicode sparkline."""
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = (hi - lo) or 1.0
    glyphs = []
    for value in values:
        level = int((value - lo) / span * (len(_SPARK_GLYPHS) - 1))
        glyphs.append(_SPARK_GLYPHS[max(0, min(level,
                                               len(_SPARK_GLYPHS) - 1))])
    return "".join(glyphs)
