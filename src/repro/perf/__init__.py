"""Profiling and performance tooling for the simulator itself.

This package is about *simulator* performance (wall-clock instructions
per second), not simulated performance (IPC).  It provides:

* :class:`~repro.perf.harness.ProfileHarness` — run a workload under
  ``cProfile``, aggregate time per simulator subsystem and emit a
  ``repro.perf/1`` JSON artifact (``repro profile <bench> --perf``).
* :class:`~repro.perf.reference.ReferenceSaturatingCounterTable` — the
  original list-backed counter table, kept as the semantics oracle for
  the ``array``-backed fast path (``tests/test_perf.py``).
* :class:`~repro.perf.reference.ReferenceTimingModel` — the per-record
  timing loop, kept as the semantics oracle for the fused loop
  (``tests/test_kernel.py``) and as the throughput benchmarks'
  per-record point.

See ``docs/performance.md`` for the profiling workflow and the hot-path
inventory that the current optimizations came from.
"""

from repro.perf.harness import ProfileHarness, ProfileReport, SUBSYSTEMS
from repro.perf.reference import (
    ReferenceSaturatingCounterTable,
    ReferenceTimingModel,
)

__all__ = [
    "ProfileHarness",
    "ProfileReport",
    "SUBSYSTEMS",
    "ReferenceSaturatingCounterTable",
    "ReferenceTimingModel",
]
