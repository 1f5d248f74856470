#!/usr/bin/env python
"""Ramp-up dynamics: watching the Path Cache learn.

The hardware mechanism starts cold: paths must occur 32 times before
classification, the builder constructs one routine at a time, and only
then do predictions flow.  This example plots windowed speed-up over the
run for (a) the dynamic mechanism and (b) the profile-guided variant
that starts with a full MicroRAM — making the ramp visible.

Run:  python examples/rampup.py [benchmark] [instructions]
"""

import sys

from repro.analysis.timeline import sparkline, speedup_timeline
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.core.static import prebuild_microthreads, profile_difficult_paths
from repro.workloads import BENCHMARK_NAMES, benchmark_trace


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "comp"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 300_000
    if name not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark {name!r}")
    window = max(10_000, length // 15)

    trace = benchmark_trace(name, length)
    config = SSMTConfig()

    print(f"{name}: windowed speed-up over the baseline "
          f"({window}-instruction windows)\n")

    dynamic = speedup_timeline(
        trace, lambda: SSMTEngine(config, trace.initial_memory), window)
    values = [s for _, s in dynamic]
    print(f"dynamic        {sparkline(values, lo=0.95)}  "
          f"first={values[0]:.3f} last={values[-1]:.3f}")

    paths = profile_difficult_paths(trace, n=config.n,
                                    threshold=config.difficulty_threshold)
    threads = prebuild_microthreads(trace, paths, config)
    static = speedup_timeline(
        trace,
        lambda: SSMTEngine(config, trace.initial_memory, image=threads),
        window)
    values = [s for _, s in static]
    print(f"profile-guided {sparkline(values, lo=0.95)}  "
          f"first={values[0]:.3f} last={values[-1]:.3f}")

    print("\nReading: the dynamic run climbs from ~1.0 as paths get "
          "classified and\nroutines built; the profile-guided run starts "
          "near its steady state.")


if __name__ == "__main__":
    main()
