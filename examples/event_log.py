#!/usr/bin/env python
"""Narrated run: the mechanism's decisions as they happen.

Attaches an event log to the SSMT engine and prints the life story of
one difficult branch: classification, build, promotion, spawns, aborts
and consumed predictions.

Run:  python examples/event_log.py [benchmark] [instructions]
"""

import sys

from repro.branch.unit import BranchPredictorComplex
from repro.core.events import EventLog
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.kernel import OoOTimingModel
from repro.workloads import BENCHMARK_NAMES, benchmark_trace


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "comp"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 120_000
    if name not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark {name!r}")

    trace = benchmark_trace(name, length)
    log = EventLog(capacity=100_000)
    engine = SSMTEngine(SSMTConfig(), initial_memory=trace.initial_memory,
                        event_log=log)
    OoOTimingModel().run(trace, BranchPredictorComplex(), engine)

    print(f"{name}: {len(trace)} instructions")
    print("event totals:", log.summary())

    promotions = log.of_kind("promote")
    if not promotions:
        print("\n(no promotions at this trace length — try more "
              "instructions)")
        return
    branch = promotions[0].term_pc
    story = log.for_branch(branch)
    print(f"\nlife story of terminating branch @pc {branch} "
          f"({len(story)} events; first 30 shown):")
    for event in story[:30]:
        print(f"  {event}")

    predictions = [e for e in story if e.kind == "prediction"]
    if predictions:
        consumed = len(predictions)
        helpful = sum(1 for e in predictions if "hw_mis=True" in e.detail
                      and "correct=True" in e.detail)
        print(f"\n{consumed} predictions consumed for this branch; "
              f"{helpful} corrected a hardware mispredict.")


if __name__ == "__main__":
    main()
