"""cProfile harness with per-subsystem aggregation (``repro.perf/1``).

Runs one SSMT workload under :mod:`cProfile`, buckets the profile's
per-function *total* time (time inside the function itself, excluding
callees) by simulator subsystem, and emits a JSON artifact so profiles
can be diffed across commits.  The subsystem map is by module path, so
new functions land in the right bucket automatically.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, run_ssmt
from repro.schemas import schema_string
from repro.telemetry.session import TelemetrySession
from repro.workloads import benchmark_trace

SCHEMA = schema_string("repro.perf", 1)

#: Subsystem name -> module path fragments (matched against profile
#: entries' filenames).  First match wins; order is most-specific first.
SUBSYSTEMS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("branch_unit", ("repro/branch/",)),
    ("path_cache", ("repro/core/path_cache",)),
    ("path_tracking", ("repro/core/path",)),       # after path_cache
    ("prb", ("repro/core/prb",)),
    ("builder", ("repro/core/builder", "repro/core/microthread",
                 "repro/core/microram", "repro/core/mcb")),
    ("spawn", ("repro/core/spawn", "repro/core/prediction_cache")),
    ("ssmt_engine", ("repro/core/ssmt",)),
    ("timing_model", ("repro/uarch/",)),
    ("kernel", ("repro/kernel/",)),                # the fused retire loop
    ("telemetry", ("repro/telemetry/",)),
    ("value_predictors", ("repro/valuepred/",)),
    ("functional_sim", ("repro/sim/",)),
    ("workload", ("repro/workloads/",)),
    ("isa", ("repro/isa/",)),
)


def classify(filename: str) -> str:
    """Map a profile entry's filename to a subsystem bucket."""
    normalized = filename.replace("\\", "/")
    for name, fragments in SUBSYSTEMS:
        for fragment in fragments:
            if fragment in normalized:
                return name
    return "other"


class ProfileReport:
    """Aggregated profile of one workload run."""

    def __init__(self, benchmark: str, instructions: int,
                 wall_seconds: float, payload: Dict[str, Any]):
        self.benchmark = benchmark
        self.instructions = instructions
        self.wall_seconds = wall_seconds
        self.payload = payload

    @property
    def subsystems(self) -> Dict[str, Dict[str, Any]]:
        return self.payload["subsystems"]

    @property
    def top_functions(self) -> List[Dict[str, Any]]:
        return self.payload["top_functions"]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def format_table(self) -> str:
        """Human-readable subsystem breakdown, hottest first."""
        lines = [f"{'subsystem':<18} {'seconds':>9} {'%':>6} {'calls':>10}"]
        for name, row in sorted(self.subsystems.items(),
                                key=lambda kv: -kv[1]["seconds"]):
            lines.append(f"{name:<18} {row['seconds']:>9.4f} "
                         f"{100 * row['fraction']:>5.1f}% "
                         f"{row['calls']:>10}")
        return "\n".join(lines)


class ProfileHarness:
    """Profile one SSMT run and aggregate time per subsystem.

    ``telemetry=True`` attaches a :class:`TelemetrySession` so the
    telemetry bucket reflects instrumented-run overhead; by default the
    engine runs detached (its production fast path).
    """

    def __init__(self, benchmark: str = "gcc", instructions: int = 20_000,
                 config: Optional[SSMTConfig] = None,
                 telemetry: bool = False, top: int = 20):
        self.benchmark = benchmark
        self.instructions = instructions
        self.config = config if config is not None else SSMTConfig()
        self.telemetry = telemetry
        self.top = top

    def run(self) -> ProfileReport:
        trace = benchmark_trace(self.benchmark, self.instructions)
        session = TelemetrySession() if self.telemetry else None
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        run_ssmt(trace, self.config,
                 predictor=BranchPredictorComplex(), telemetry=session)
        profiler.disable()
        wall = time.perf_counter() - start
        return self._aggregate(profiler, wall)

    def _aggregate(self, profiler: cProfile.Profile,
                   wall: float) -> ProfileReport:
        stats = pstats.Stats(profiler)
        buckets: Dict[str, Dict[str, Any]] = {}
        functions: List[Dict[str, Any]] = []
        total = 0.0
        for (filename, lineno, funcname), (_cc, nc, tottime, cumtime, _callers) \
                in stats.stats.items():  # type: ignore[attr-defined]
            total += tottime
            subsystem = classify(filename)
            bucket = buckets.setdefault(
                subsystem, {"seconds": 0.0, "calls": 0})
            bucket["seconds"] += tottime
            bucket["calls"] += nc
            normalized = filename.replace("\\", "/")
            functions.append({
                "function": f"{normalized}:{lineno}:{funcname}",
                "subsystem": subsystem,
                "calls": nc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            })
        for bucket in buckets.values():
            bucket["fraction"] = (bucket["seconds"] / total) if total else 0.0
            bucket["seconds"] = round(bucket["seconds"], 6)
        functions.sort(key=lambda f: -f["tottime"])
        payload: Dict[str, Any] = {
            "schema": SCHEMA,
            "benchmark": self.benchmark,
            "instructions": self.instructions,
            "telemetry_attached": self.telemetry,
            "wall_seconds": round(wall, 6),
            "profiled_seconds": round(total, 6),
            "instructions_per_second": round(self.instructions / wall, 2)
            if wall else 0.0,
            "subsystems": buckets,
            "top_functions": functions[:self.top],
        }
        return ProfileReport(self.benchmark, self.instructions, wall, payload)
