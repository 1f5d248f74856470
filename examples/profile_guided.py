#!/usr/bin/env python
"""Compile-time difficult-path microthreading (extension).

The paper's hardware mechanism identifies difficult paths at run time
with a finite Path Cache and pays a warm-up ramp plus build latency.
This example runs the profile-guided variant: an offline pass finds
every difficult path (no capacity limit), pre-builds the microthreads,
and the machine starts with a full static MicroRAM.

Run:  python examples/profile_guided.py [benchmark] [instructions]
"""

import sys

from repro.analysis import format_table
from repro.analysis.experiments import baseline_run
from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_ssmt
from repro.core.static import prebuild_microthreads, profile_difficult_paths
from repro.kernel import OoOTimingModel
from repro.workloads import BENCHMARK_NAMES, benchmark_trace


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 150_000
    if name not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark {name!r}")

    trace = benchmark_trace(name, length)
    config = SSMTConfig()

    print(f"profiling {name} ({length} instructions)...")
    paths = profile_difficult_paths(trace, n=config.n,
                                    threshold=config.difficulty_threshold)
    print(f"  {len(paths)} difficult paths found; worst offenders:")
    for p in paths[:5]:
        print(f"    branch pc {p.key.term_pc}: {p.mispredicts} mispredicts "
              f"over {p.occurrences} occurrences "
              f"({100 * p.mispredict_rate:.0f}%)")

    threads = prebuild_microthreads(trace, paths, config)
    print(f"  {len(threads)} microthreads pre-built "
          f"(mean size {sum(t.routine_size for t in threads) / max(1, len(threads)):.1f} insts)")

    base = baseline_run(trace)
    dynamic, _ = run_ssmt(trace, config)
    engine = SSMTEngine(config, trace.initial_memory, image=threads)
    static = OoOTimingModel().run(trace, BranchPredictorComplex(), engine)

    print()
    print(format_table(
        ["configuration", "IPC", "speed-up"],
        [
            ["baseline (Table 3)", round(base.ipc, 2), 1.0],
            ["dynamic SSMT (the paper)", round(dynamic.ipc, 2),
             round(dynamic.ipc / base.ipc, 3)],
            ["profile-guided SSMT", round(static.ipc, 2),
             round(static.ipc / base.ipc, 3)],
        ],
        title=f"{name}: dynamic vs compile-time identification"))
    print("\nThe gap is the cost of run-time identification: Path Cache "
          "capacity,\ntraining intervals and builder latency — the "
          "future-work direction the\npaper sketches in §5.2/§6.")


if __name__ == "__main__":
    main()
