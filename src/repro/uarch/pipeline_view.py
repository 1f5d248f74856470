"""Pipeline timing capture and text rendering.

:func:`record_pipeline` captures a window of instructions'
fetch/dispatch/issue/complete/retire cycles from the timing loop;
:func:`render_pipeline` draws the classic pipeline
diagram — one row per instruction, one column per cycle — which makes
misprediction bubbles, cache-miss stalls and window pressure visible at
a glance.  Used by ``examples/pipeline_diagram.py`` and handy when
debugging timing-model behaviour.

Stage letters: ``F`` fetch, ``D`` dispatch (rename done), ``I`` issue,
``C`` complete, ``R`` retire; ``.`` marks cycles in between stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.branch.unit import BranchPredictorComplex
from repro.sim.trace import Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.ssmt import SSMTEngine


@dataclass
class InstructionTiming:
    """Cycle timeline of one dynamic instruction."""

    idx: int
    disassembly: str
    fetch: int
    dispatch: int
    issue: int
    complete: int
    retire: int


def record_pipeline(trace: Trace, start: int, count: int,
                    engine: Optional[SSMTEngine] = None,
                    machine: MachineConfig = TABLE3_BASELINE,
                    ) -> List[InstructionTiming]:
    """Pipeline timings of instructions ``[start, start + count)``.

    Times everything before ``start`` as one span of the timing loop,
    then each recorded instruction as a span of its own, reading its
    stage cycles from the run state.  Nothing after the window is
    timed.  The timing model import is deferred because
    :mod:`repro.kernel` imports :mod:`repro.core`, which imports this
    package.
    """
    from repro.kernel.batched import OoOTimingModel

    model = OoOTimingModel(machine)
    state = model.start(trace, BranchPredictorComplex(), engine)
    n = state.columns.n
    model.run_span(state, 0, min(start, n))
    records = state.columns.records
    rows: List[InstructionTiming] = []
    for idx in range(start, min(start + count, n)):
        model.run_span(state, idx, idx + 1)
        rows.append(InstructionTiming(
            idx, records[idx].inst.disassemble(), *state.timing))
    return rows


def render_pipeline(records: Sequence[InstructionTiming],
                    max_width: int = 100,
                    disassembly_width: int = 24) -> str:
    """Draw the pipeline diagram for recorded instructions."""
    if not records:
        return "(no instructions recorded)"
    first_cycle = min(r.fetch for r in records)
    last_cycle = max(r.retire for r in records)
    span = last_cycle - first_cycle + 1
    clipped = span > max_width

    lines = [f"cycles {first_cycle}..{last_cycle}"
             + (" (clipped)" if clipped else "")]
    for r in records:
        row = [" "] * min(span, max_width)

        def mark(cycle: int, letter: str) -> None:
            offset = cycle - first_cycle
            if 0 <= offset < len(row):
                if row[offset] == " " or row[offset] == ".":
                    row[offset] = letter

        # in-flight filler between issue and completion
        for cycle in range(r.issue, min(r.complete + 1,
                                        first_cycle + len(row))):
            mark(cycle, ".")
        mark(r.fetch, "F")
        mark(r.dispatch, "D")
        mark(r.issue, "I")
        mark(r.complete, "C")
        mark(r.retire, "R")
        label = r.disassembly[:disassembly_width].ljust(disassembly_width)
        lines.append(f"{r.idx:5d} {label} |{''.join(row)}|")
    return "\n".join(lines)


def summarize_stalls(records: Sequence[InstructionTiming]) -> dict:
    """Aggregate where cycles are spent between stages."""
    if not records:
        return {"fetch_to_dispatch": 0.0, "dispatch_to_issue": 0.0,
                "issue_to_complete": 0.0, "complete_to_retire": 0.0}
    n = len(records)
    return {
        "fetch_to_dispatch": sum(r.dispatch - r.fetch for r in records) / n,
        "dispatch_to_issue": sum(r.issue - r.dispatch for r in records) / n,
        "issue_to_complete": sum(r.complete - r.issue for r in records) / n,
        "complete_to_retire": sum(r.retire - r.complete for r in records) / n,
    }
