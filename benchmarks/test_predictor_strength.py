"""Baseline-predictor-strength sensitivity.

The paper stresses that it improves an *aggressive* baseline ("it is
more difficult to improve performance when the primary thread already
achieves high performance", §5.1).  This bench runs the mechanism
against weak (bimodal), medium (gshare-only) and strong (full hybrid)
baselines — each compared to its own predictor's baseline run — to show
the gain persists on the strong baseline while weaker predictors leave
more for microthreads to harvest.

The zoo baselines (``docs/predictors.md``) extend the strength axis past
2002: TAGE-lite, a hashed perceptron and an H2P-augmented TAGE ride the
same sweep, and the per-unit accuracy/speed-up pairs are written to
``BENCH_predictors.json`` (schema ``repro.bench/1``) so predictor
strength joins the benchmark trajectory CI archives.
"""

import os
import statistics

import pytest

from repro.analysis import format_table
from repro.branch.bimodal import BimodalPredictor
from repro.branch.gshare import GsharePredictor
from repro.branch.unit import BranchPredictorComplex
from repro.branch.zoo import ARENA_BASELINES, make_complex
from repro.core.ssmt import SSMTConfig, run_ssmt
from repro.telemetry import write_bench_json
from repro.kernel import OoOTimingModel
from repro.workloads import benchmark_trace

STRENGTH_BENCHMARKS = ("comp", "gcc", "mcf_2k", "parser_2k")

_RESULTS = {}


def make_units():
    """Factories for the classic strengths plus the zoo baselines.

    Order matters: the strength assertions index the classic triple
    (bimodal/gshare/hybrid) by position, so zoo units append after.
    """
    return {
        "bimodal-4K": lambda: BranchPredictorComplex(
            direction=BimodalPredictor(entries=4096)),
        "gshare-16K": lambda: BranchPredictorComplex(
            direction=GsharePredictor(entries=16 * 1024, history_bits=12)),
        "hybrid-128K": lambda: BranchPredictorComplex(),
        "tage-lite": lambda: make_complex(ARENA_BASELINES["tage"]),
        "perceptron": lambda: make_complex(ARENA_BASELINES["perceptron"]),
        "h2p-tage": lambda: make_complex(ARENA_BASELINES["h2p-tage"]),
    }


@pytest.fixture(scope="module", autouse=True)
def _bench_artifact():
    """Write BENCH_predictors.json after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    path = os.environ.get("REPRO_BENCH_PREDICTORS_JSON",
                          "BENCH_predictors.json")
    write_bench_json(path, "predictors", dict(_RESULTS), context={
        "benchmarks": list(STRENGTH_BENCHMARKS),
    })


def run_strength_sweep(benchmarks, trace_length):
    units = make_units()
    rows = []
    for name in benchmarks:
        trace = benchmark_trace(name, trace_length)
        row = [name]
        for label, factory in units.items():
            base = OoOTimingModel().run(trace, factory())
            ssmt, _ = run_ssmt(trace, SSMTConfig(), predictor=factory())
            accuracy = round(100 * (1 - base.mispredict_rate()), 1)
            speedup = round(ssmt.ipc / base.ipc, 3)
            row += [accuracy, speedup]
            _RESULTS.setdefault(label, {})[name] = {
                "accuracy_pct": accuracy,
                "ssmt_speedup": speedup,
            }
        rows.append(row)
    return rows


def test_predictor_strength(benchmark, trace_length):
    rows = benchmark.pedantic(run_strength_sweep,
                              args=(STRENGTH_BENCHMARKS, trace_length),
                              rounds=1, iterations=1)
    headers = ["bench"]
    for label in make_units():
        headers += [f"{label}:acc%", f"{label}:SU"]
    print()
    print(format_table(headers, rows,
                       title="Baseline predictor strength vs SSMT gain"))

    mean_weak = statistics.mean(row[2] for row in rows)
    mean_strong = statistics.mean(row[6] for row in rows)
    # the mechanism must still win on the aggressive baseline...
    assert mean_strong > 1.0
    # ...and weaker baselines leave at least as much on the table
    assert mean_weak >= mean_strong - 0.02
    # sanity: the hybrid really is the most accurate baseline
    acc_weak = statistics.mean(row[1] for row in rows)
    acc_strong = statistics.mean(row[5] for row in rows)
    assert acc_strong > acc_weak
    # the zoo rode along: every unit reported every benchmark
    assert set(_RESULTS) == set(make_units())
    for per_bench in _RESULTS.values():
        assert set(per_bench) == set(STRENGTH_BENCHMARKS)
