"""The 20-benchmark synthetic suite.

Names match the paper's Tables 1-2 (SPECint95 + SPECint2000).  Each
profile is calibrated to echo the paper's qualitative per-benchmark
character — e.g. ``gcc``/``go`` are branchy with many difficult paths,
``eon_2k``/``vortex`` are well-behaved, ``bzip2_2k``/``vpr_2k`` have very
large path scopes, ``mcf_2k`` is memory-bound (prefetch side-effects),
``perlbmk_2k`` has a tiny difficult-branch execution coverage.

Absolute path counts cannot match the paper (traces are orders of
magnitude shorter); the *shape* across n, T and benchmarks is the target.
"""

from __future__ import annotations

import collections
import threading
from typing import Dict, Optional, Tuple

from repro.isa.program import Program
from repro.kernel.columns import PackedColumns, predecode
from repro.sim.functional import FunctionalSimulator
from repro.sim.trace import Trace
from repro.workloads.generator import generate_program
from repro.workloads.spec import SiteKind, WorkloadSpec

#: Default dynamic instruction budget for suite traces.  Program bodies
#: are ~500-3000 static instructions, so this yields a few hundred
#: main-loop iterations — enough to train predictors and the Path Cache
#: past warm-up (analyses skip a warm-up prefix; see
#: :data:`DEFAULT_WARMUP_FRACTION`).
DEFAULT_TRACE_LENGTH = 400_000

#: Fraction of the trace analyses treat as warm-up by default.
DEFAULT_WARMUP_FRACTION = 0.25

K = SiteKind


def _spec(name, seed, funcs, sites, mix, hop=(1, 4), filler=(3, 10),
          thresholds=(30, 70), entropy=1.0, array=1024, noise=0.3,
          data_trip_fraction=0.5, loop_trips=(3, 8)) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        seed=seed,
        n_functions=funcs,
        sites_per_function=sites,
        mix=mix,
        hop_range=hop,
        filler_range=filler,
        threshold_range=thresholds,
        data_entropy=entropy,
        array_size=array,
        noise_prob=noise,
        data_trip_fraction=data_trip_fraction,
        loop_trip_range=loop_trips,
    )


_SPECS: Dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> None:
    _SPECS[spec.name] = spec


# ---- SPECint95 --------------------------------------------------------------

_register(_spec(
    "comp", 95001, funcs=2, sites=4,
    mix={K.DATA: 3, K.LOOP: 2, K.BIASED: 2, K.PATTERN: 1},
    hop=(1, 3), filler=(4, 10),
))
_register(_spec(
    "gcc", 95002, funcs=8, sites=8,
    mix={K.BIASED: 3, K.PATTERN: 2, K.DATA: 2, K.PATHDEP: 2, K.LOOP: 1,
         K.CORRELATED: 1, K.INDIRECT: 0.5},
    hop=(1, 3), filler=(2, 8),
))
_register(_spec(
    "go", 95003, funcs=7, sites=8,
    mix={K.DATA: 4, K.PATHDEP: 2, K.PATTERN: 2, K.BIASED: 2, K.LOOP: 1},
    hop=(1, 4), filler=(3, 10), thresholds=(40, 60),
))
_register(_spec(
    "ijpeg", 95004, funcs=4, sites=6,
    mix={K.LOOP: 4, K.BIASED: 3, K.DATA: 1.5, K.PATTERN: 1},
    hop=(1, 4), filler=(4, 12), data_trip_fraction=0.3,
))
_register(_spec(
    "li", 95005, funcs=3, sites=5,
    mix={K.BIASED: 3, K.CORRELATED: 2, K.PATTERN: 2, K.DATA: 1, K.PATHDEP: 1},
    hop=(1, 3), filler=(2, 7),
))
_register(_spec(
    "m88ksim", 95006, funcs=4, sites=6,
    mix={K.BIASED: 6, K.PATTERN: 3, K.LOOP: 2, K.DATA: 0.6},
    hop=(1, 3), filler=(3, 8), entropy=0.5,
))
_register(_spec(
    "perl", 95007, funcs=4, sites=7,
    mix={K.BIASED: 4, K.PATHDEP: 3, K.PATTERN: 2, K.CORRELATED: 1,
         K.INDIRECT: 0.7, K.DATA: 0.5},
    hop=(1, 3), filler=(2, 8),
))
_register(_spec(
    "vortex", 95008, funcs=6, sites=7,
    mix={K.BIASED: 8, K.PATTERN: 2, K.LOOP: 1.5, K.DATA: 0.6, K.PATHDEP: 0.5},
    hop=(1, 3), filler=(3, 9), entropy=0.6,
))

# ---- SPECint2000 ------------------------------------------------------------

_register(_spec(
    "bzip2_2k", 20001, funcs=4, sites=5,
    mix={K.DATA: 3, K.LOOP: 2, K.BIASED: 2, K.PATTERN: 1, K.STOREDEP: 1},
    hop=(3, 8), filler=(12, 30), array=8192,
))
_register(_spec(
    "crafty_2k", 20002, funcs=6, sites=7,
    mix={K.BIASED: 3, K.DATA: 2.5, K.PATTERN: 2, K.PATHDEP: 1.5,
         K.LOOP: 1, K.CORRELATED: 1},
    hop=(2, 5), filler=(4, 12),
))
_register(_spec(
    "eon_2k", 20003, funcs=4, sites=6,
    mix={K.BIASED: 8, K.PATTERN: 3, K.LOOP: 2, K.DATA: 0.4},
    hop=(1, 3), filler=(3, 9), entropy=0.45, data_trip_fraction=0.1,
))
_register(_spec(
    "gap_2k", 20004, funcs=5, sites=6,
    mix={K.BIASED: 4, K.LOOP: 2, K.DATA: 1.5, K.PATTERN: 1.5, K.PATHDEP: 1},
    hop=(1, 4), filler=(3, 10),
))
_register(_spec(
    "gcc_2k", 20005, funcs=9, sites=8,
    mix={K.BIASED: 3, K.PATTERN: 2, K.DATA: 2, K.PATHDEP: 2, K.LOOP: 1,
         K.CORRELATED: 1, K.INDIRECT: 0.6},
    hop=(1, 4), filler=(3, 9),
))
_register(_spec(
    "gzip_2k", 20006, funcs=4, sites=5,
    mix={K.DATA: 3, K.BIASED: 2.5, K.LOOP: 2, K.PATTERN: 1},
    hop=(2, 6), filler=(8, 20), array=8192,
))
_register(_spec(
    "mcf_2k", 20007, funcs=3, sites=5,
    mix={K.DATA: 2.5, K.PATHDEP: 2, K.BIASED: 3, K.LOOP: 1, K.PATTERN: 1},
    hop=(1, 3), filler=(3, 9), array=65536,
))
_register(_spec(
    "parser_2k", 20008, funcs=5, sites=7,
    mix={K.BIASED: 3, K.CORRELATED: 2, K.DATA: 2, K.PATTERN: 2,
         K.PATHDEP: 1.5, K.LOOP: 1},
    hop=(1, 4), filler=(3, 10),
))
_register(_spec(
    "perlbmk_2k", 20009, funcs=5, sites=7,
    mix={K.BIASED: 10, K.PATTERN: 2, K.LOOP: 1.5, K.DATA: 0.35},
    hop=(1, 3), filler=(3, 9), entropy=0.4, data_trip_fraction=0.05,
))
_register(_spec(
    "twolf_2k", 20010, funcs=5, sites=6,
    mix={K.DATA: 3, K.BIASED: 3, K.PATTERN: 2, K.PATHDEP: 1.5, K.LOOP: 1},
    hop=(2, 5), filler=(5, 14),
))
_register(_spec(
    "vortex_2k", 20011, funcs=6, sites=7,
    mix={K.BIASED: 7, K.PATTERN: 2, K.LOOP: 1.5, K.DATA: 0.8, K.PATHDEP: 0.5},
    hop=(2, 4), filler=(4, 12), entropy=0.6,
))
_register(_spec(
    "vpr_2k", 20012, funcs=4, sites=5,
    mix={K.DATA: 4, K.PATHDEP: 2, K.LOOP: 1.5, K.BIASED: 1.5, K.STOREDEP: 1},
    hop=(3, 8), filler=(14, 34), array=8192,
))

BENCHMARK_NAMES: Tuple[str, ...] = tuple(_SPECS.keys())

_PROGRAM_CACHE: Dict[str, Program] = {}


def benchmark_spec(name: str) -> WorkloadSpec:
    """Return the :class:`WorkloadSpec` for a named suite benchmark."""
    if name not in _SPECS:
        raise KeyError(f"unknown benchmark {name!r}; see BENCHMARK_NAMES")
    return _SPECS[name]


def build_benchmark(name: str) -> Program:
    """Generate (and cache) the program for a named benchmark."""
    if name not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[name] = generate_program(benchmark_spec(name))
    return _PROGRAM_CACHE[name]


class _Entry:
    """A benchmark's simulator, the packed columns of what it retired,
    and its first trace until that is packed."""

    __slots__ = ("sim", "packed", "unpacked")

    def __init__(self, program: Program):
        self.sim = FunctionalSimulator(program)
        self.packed = PackedColumns()
        self.unpacked: Optional[Trace] = None

    def pack(self) -> None:
        if self.unpacked is not None:
            self.packed.append(predecode(self.unpacked))
            self.unpacked = None


class TraceStore:
    """Every length of a benchmark's trace, served as a prefix of one
    growing trace per benchmark.

    A benchmark's first request gets the simulator's own trace; later
    ones grow the entry if needed and get a view of its packed columns,
    which the GC does not walk.  The last :data:`VIEWS_KEPT` traces are
    kept by ``(name, n)`` and served again as the same object.  A first
    trace is packed only when its entry is used again or the trace
    leaves the kept ones, so a one-shot run packs nothing.  Entries hold
    at most ``budget`` instructions, least recently used evicted first;
    a longer trace is served but not kept.
    """

    #: traces kept whole (records and predecode lists) for repeats
    VIEWS_KEPT = 3

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: "collections.OrderedDict[str, _Entry]" = (
            collections.OrderedDict())
        self._views: "collections.OrderedDict[Tuple[str, int], Trace]" = (
            collections.OrderedDict())
        self._lock = threading.Lock()

    def resident(self) -> int:
        """Instructions held across all entries."""
        return sum(entry.sim.retired for entry in self._entries.values())

    def trace(self, name: str, n: int) -> Trace:
        key = (name, n)
        with self._lock:
            view = self._views.get(key)
            if view is not None:
                self._views.move_to_end(key)
                return view
            entry = (self._entries.pop(name, None)
                     or _Entry(build_benchmark(name)))
            sim, packed = entry.sim, entry.packed
            if sim.retired == 0 and n > 0:
                view = entry.unpacked = sim.run(n)
            else:
                entry.pack()
                if n > packed.n and not sim.halted:
                    packed.append(predecode(sim.run(n)))
                n = max(0, min(n, packed.n))
                view = packed.trace(n, sim.program,
                                    halted=sim.halted and n == packed.n)
            if sim.retired <= self.budget:
                self._entries[name] = entry
            resident = self.resident()
            while resident > self.budget:
                resident -= self._entries.popitem(last=False)[1].sim.retired
            self._views[key] = view
            if len(self._views) > self.VIEWS_KEPT:
                (old_name, _), old_view = self._views.popitem(last=False)
                old = self._entries.get(old_name)
                if old is not None and old.unpacked is old_view:
                    old.pack()
            return view

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._views.clear()


#: Resident budget: three full-length traces.
_STORE = TraceStore(3 * DEFAULT_TRACE_LENGTH)


def benchmark_trace(name: str,
                    max_instructions: int = DEFAULT_TRACE_LENGTH) -> Trace:
    """A benchmark's retirement trace of ``max_instructions``, served
    from the per-process trace store."""
    return _STORE.trace(name, max_instructions)


def clear_trace_cache() -> None:
    """Drop stored traces and cached programs (used by tests)."""
    _STORE.clear()
    _PROGRAM_CACHE.clear()
