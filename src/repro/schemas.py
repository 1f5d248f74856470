"""Single source of truth for versioned artifact schemas.

Every machine-readable artifact the toolkit writes carries a
``"schema": "<name>/<version>"`` marker.  Historically each module
declared its own string literal; this registry centralises them so that

* a schema string can never be emitted without being registered here
  (``repro lint`` rule LINT020 scans for stray ``repro.*/N`` literals),
* every registered schema has exactly one owning module and a place the
  docs can enumerate (rule LINT021), and
* consumers can discover the current version of any artifact family
  programmatically.

:data:`CODE_SCHEMA_VERSION` also lives here (re-exported by
:mod:`repro.parallel.taskkey`, its historical home): it versions the
*simulator semantics* that task keys hash over, and must be bumped
whenever those semantics change — the payload corpora
(``tests/test_taskkey_corpus.py``, ``tests/test_consumer_corpus.py``)
pin payload digests under the version they were taken at, so a digest
that moves without a bump fails tier-1.

This module is intentionally a leaf: it imports nothing from
``repro.*`` so that any module (telemetry, parallel, perf, lint) can
import it without creating a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

#: Bump on any change to simulation semantics or the point payload —
#: cached results from an older version must never be served as current.
#: The payload corpora keep one pinned table per version, so a bump also
#: adds the new version's table there.
#:
#: History: 2 — sweep tasks gained the ``predictor`` identity field and
#: point payloads the matching ``predictor`` section (repro.zoo).
#: 3 — Prediction Cache deallocates invalidated entries on touch and
#: reclaims them first under capacity pressure (changes slot residency
#: and the ``prediction_cache`` stats section, which grew an
#: ``invalid_deallocations`` counter); sweep tasks gained the optional
#: ``sample`` identity field for sampled simulation (:mod:`repro.kernel`).
CODE_SCHEMA_VERSION = 3

#: Every versioned artifact schema: name -> version -> owning module.
#: The owning module is the one that emits the schema string (and
#: documents the payload layout in its docstring).
SCHEMA_REGISTRY: Dict[str, Dict[int, str]] = {
    "repro.telemetry": {1: "repro.telemetry.report"},
    "repro.bench": {1: "repro.telemetry.report"},
    "repro.sweep": {1: "repro.parallel.sweep"},
    "repro.sweep.point": {1: "repro.parallel.cache"},
    "repro.arena": {1: "repro.analysis.arena"},
    "repro.perf": {1: "repro.perf.harness"},
    "repro.lint": {1: "repro.lint.report"},
    "repro.lint.baseline": {1: "repro.lint.baseline"},
    "repro.obs": {1: "repro.obs.export"},
    "repro.obs.flight": {1: "repro.obs.flight"},
    "repro.serve.job": {1: "repro.serve.jobs"},
}

#: Human-facing metadata per schema *name* (latest version): a one-line
#: description plus the top-level field table.  ``tools/gen_schema_docs.py``
#: renders this registry into ``docs/schemas.md``, and the freshness gate
#: in ``tools/check_docs.py`` fails CI whenever the generated page and
#: this table disagree — so a new schema (or a new field worth
#: documenting) lands here or the build goes red.  Every name in
#: :data:`SCHEMA_REGISTRY` must have an entry (enforced by
#: ``tests/test_schema_docs.py``).
SCHEMA_INFO: Dict[str, Dict[str, Any]] = {
    "repro.telemetry": {
        "description": ("One run's full telemetry export: config, "
                            "timing, metrics snapshot, interval "
                            "time-series and microthread lifecycle "
                            "spans."),
        "fields": {
            "benchmark": "workload name the run simulated",
            "instructions": "dynamic instructions retired",
            "config": "SSMTConfig fields of the run",
            "timing": "TimingResult.as_dict() summary (cycles, ipc, ...)",
            "metrics": "full MetricsRegistry snapshot, dotted names",
            "samples": "IntervalSampler rows, one per N retired "
                       "instructions",
            "spans": "ThreadTracer per-microthread lifecycle spans",
            "routines": "per-promotion build records (size, chain, "
                        "latency, failure reason)",
            "span_summary": "ThreadTracer aggregate counters",
        },
    },
    "repro.bench": {
        "description": ("Flat benchmark artifact (BENCH_*.json) for "
                            "the performance/regression trajectory."),
        "fields": {
            "bench": "benchmark family name (e.g. 'sweep', 'arena')",
            "context": "free-form provenance (instructions, suite, "
                       "machine)",
            "results": "per-label result rows, benchmark-defined shape",
        },
    },
    "repro.sweep": {
        "description": ("Merged sweep-level artifact: every point "
                            "payload plus per-label speed-up "
                            "aggregates."),
        "fields": {
            "context": "grid description + runner accounting",
            "points": "per-point payloads (repro.sweep.point/1, plus "
                      "'speedup' on mechanism points)",
            "aggregates": "per config label: mean/geomean speed-up and "
                          "per-benchmark map",
            "failures": "task_key -> failure reason for points with no "
                        "result",
        },
    },
    "repro.sweep.point": {
        "description": ("One simulated sweep point, as cached by the "
                            "content-addressed result store and "
                            "returned by workers."),
        "fields": {
            "task_key": "SHA-256 content address of the simulation "
                        "identity",
            "kind": "baseline | ssmt | oracle | potential",
            "label": "display label of the requesting grid column",
            "benchmark": "workload name",
            "instructions": "dynamic instructions simulated",
            "config": "SSMTConfig fields (ssmt points; else null)",
            "machine": "MachineConfig fields",
            "predictor": "zoo PredictorConfig, or null for the paper "
                         "hybrid",
            "timing": "TimingResult.as_dict() summary",
            "metrics": "engine structure statistics (ssmt points; else "
                       "null)",
            "sampled": "true when the result is a sampled-simulation "
                       "extrapolation (absent on exact runs)",
            "sample": "sampling accounting (interval, warmup, windows, "
                      "measured_fraction; sampled runs only)",
        },
    },
    "repro.arena": {
        "description": ("Predictor-arena study: SSMT headroom vs "
                            "baseline predictor strength with per-path "
                            "H2P regime analytics."),
        "fields": {
            "context": "grid description + runner accounting",
            "baselines": "per zoo-baseline label: PredictorConfig and "
                         "per-benchmark rows",
            "headroom": "per label: accuracy and geomean "
                        "ssmt/potential/oracle speed-ups",
            "h2p": "per label x benchmark: path-regime split "
                   "(easy/transient/h2p)",
            "calibration_targets": "per benchmark: strongest baseline "
                                   "and workload-generator targets",
        },
    },
    "repro.perf": {
        "description": ("Simulator self-profile: cProfile time "
                            "aggregated per subsystem, with the hottest "
                            "functions."),
        "fields": {
            "benchmark": "workload profiled",
            "instructions": "dynamic instructions simulated",
            "telemetry_attached": "whether a TelemetrySession was "
                                  "attached during profiling",
            "wall_seconds": "end-to-end wall time of the profiled run",
            "profiled_seconds": "total tottime attributed by cProfile",
            "instructions_per_second": "throughput over wall time",
            "subsystems": "per repro.* subsystem: seconds and fraction",
            "top_functions": "hottest functions (file:line, tottime, "
                             "cumtime)",
        },
    },
    "repro.lint": {
        "description": ("repro lint report: determinism / hot-path "
                            "/ schema-governance findings over the "
                            "codebase."),
        "fields": {
            "code_schema_version": "CODE_SCHEMA_VERSION the tree "
                                   "declares",
            "files_checked": "python files analysed",
            "counts": "error / warning / suppressed totals",
            "findings": "live findings (rule, severity, path, line, "
                        "symbol, message, hint)",
            "suppressed": "findings matched by the justified baseline",
        },
    },
    "repro.lint.baseline": {
        "description": ("Justified suppression baseline for repro "
                            "lint findings."),
        "fields": {
            "entries": "suppressions: rule, path, symbol, justification",
        },
    },
    "repro.obs": {
        "description": ("Dual-clock-domain event timeline in Chrome "
                            "trace-event form (Perfetto-loadable): "
                            "sim-cycles as pid 1, wall-clock as pid 2."),
        "fields": {
            "displayTimeUnit": "Chrome trace display unit ('ms')",
            "traceEvents": "trace events (metadata + "
                           "instant/span/counter rows)",
            "otherData": "context (benchmark, config) + event/dropped "
                         "accounting",
        },
    },
    "repro.obs.flight": {
        "description": ("Misprediction flight recorder: bounded "
                            "event windows dumped around every "
                            "hard-to-predict misprediction."),
        "fields": {
            "context": "run description (benchmark, config)",
            "window": "ring size per dump",
            "thresholds": "H2P classification knobs (easy, difficult, "
                          "min_occurrences)",
            "h2p_mispredicts": "total trigger count",
            "triggers_by_pc": "trigger count per terminating branch PC",
            "dumps": "post-mortem dumps: ring events + in-flight "
                     "microthread slack",
        },
    },
    "repro.serve.job": {
        "description": ("One journal line of the sweep service's "
                            "persistent job queue (JSONL; first line is "
                            "the header carrying this marker)."),
        "fields": {
            "ev": "record kind: header | submit | task | job",
            "job": "job id (content hash of the normalised grid spec)",
            "spec": "normalised grid spec (submit records)",
            "tasks": "task keys of the job's unique points (submit "
                     "records)",
            "tenant": "submitting tenant (submit records)",
            "key": "task key (task records)",
            "state": "queued | running | done | failed (task records); "
                     "running | done | failed (job records)",
            "reason": "failure reason (failed task records)",
        },
    },
}


def schema_string(name: str, version: int = 0) -> str:
    """The ``"<name>/<version>"`` marker for a registered schema.

    With ``version=0`` (the default) the newest registered version is
    used.  Asking for an unregistered name or version raises — emitting
    an unregistered schema is exactly the drift LINT020 exists to catch,
    so the runtime refuses it too.
    """
    versions = SCHEMA_REGISTRY.get(name)
    if not versions:
        raise KeyError(f"schema {name!r} is not in SCHEMA_REGISTRY")
    if version == 0:
        version = max(versions)
    elif version not in versions:
        raise KeyError(f"schema {name!r} has no version {version} "
                       f"(registered: {sorted(versions)})")
    return f"{name}/{version}"


def parse_schema_string(marker: str) -> Tuple[str, int]:
    """Split ``"<name>/<version>"``; raises ``ValueError`` on bad form."""
    name, _, raw = marker.rpartition("/")
    if not name or not raw.isdigit():
        raise ValueError(f"not a schema marker: {marker!r}")
    return name, int(raw)


def is_registered(marker: str) -> bool:
    """Whether a ``"<name>/<version>"`` marker is in the registry."""
    try:
        name, version = parse_schema_string(marker)
    except ValueError:
        return False
    return version in SCHEMA_REGISTRY.get(name, {})


def registered_markers() -> Iterator[str]:
    """Every registered ``"<name>/<version>"`` marker, sorted."""
    for name in sorted(SCHEMA_REGISTRY):
        for version in sorted(SCHEMA_REGISTRY[name]):
            yield f"{name}/{version}"


def owning_module(marker: str) -> str:
    """The module that owns (emits and documents) a schema marker."""
    name, version = parse_schema_string(marker)
    return SCHEMA_REGISTRY[name][version]
