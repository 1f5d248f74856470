"""Pinned outputs of the runs that reuse the SSMT engine's machinery.

The potential study (Fig. 6), the profile-guided engine, the windowed
timelines and the pipeline view all drive the timing loop differently
from a plain ``run_ssmt``: an oracle instead of microthreads, a
preloaded MicroRAM, one span per window, one span per instruction.
This module pins a SHA-256 digest of each one's output on three
benchmarks, so a refactor of the loop they share must reproduce them
exactly.

The table is keyed by the ``CODE_SCHEMA_VERSION`` it was pinned under,
like ``test_taskkey_corpus.py``'s: a digest that moves while the version
stays fails, and so does a version bump that adds no table.  A change
that moves a digest here either changes simulator semantics (bump the
version and add its table; ``PYTHONPATH=src python -m
tests.test_consumer_corpus`` prints one) or is a bug.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.analysis.timeline import ipc_timeline, speedup_timeline
from repro.core.oracle import PotentialConfig, run_potential
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.core.static import run_profile_guided
from repro.schemas import CODE_SCHEMA_VERSION
from repro.uarch.config import TABLE3_BASELINE
from repro.uarch.pipeline_view import record_pipeline
from repro.workloads import benchmark_trace

from .test_taskkey_corpus import pinned

BENCHMARKS = ("comp", "gcc", "mcf_2k")
INSTRUCTIONS = 20_000
WINDOW = 5_000
PIPELINE_START = 12_000
PIPELINE_COUNT = 48
#: short paths and fast training, so every benchmark promotes paths and
#: spawns microthreads within the 20k instructions
CONFIG = SSMTConfig(n=4, training_interval=8, build_latency=20)
POTENTIAL = PotentialConfig(n=4, training_interval=8)

_TRACES = {}


def _trace(name):
    if name not in _TRACES:
        _TRACES[name] = benchmark_trace(name, INSTRUCTIONS)
    return _TRACES[name]


def _engine(trace):
    return SSMTEngine(CONFIG, initial_memory=trace.initial_memory)


def _plain(obj):
    return obj.as_dict()


def potential(trace):
    result, engine = run_potential(trace, POTENTIAL)
    return {"timing": result.as_dict(),
            "oracle_predictions": engine.oracle_predictions,
            "promoted": len(engine.oracle_paths),
            "path_cache": engine.path_cache.stats.as_dict()}


def profile_guided(trace):
    result, engine = run_profile_guided(trace, CONFIG)
    return {"timing": result.as_dict(), "report": engine.report()}


def _points(points):
    # ``mispredicts`` is left out: it was a constant 0 before the
    # timeline filled it.
    return [(p.start_idx, p.end_idx, p.cycles, p.instructions)
            for p in points]


def timeline(trace):
    return _points(ipc_timeline(trace, WINDOW))


def timeline_ssmt(trace):
    return _points(ipc_timeline(trace, WINDOW, TABLE3_BASELINE,
                                _engine(trace)))


def speedup(trace):
    return speedup_timeline(trace, lambda: _engine(trace), WINDOW)


def pipeline(trace):
    return [dataclasses.astuple(row) for row in
            record_pipeline(trace, PIPELINE_START, PIPELINE_COUNT)]


def pipeline_ssmt(trace):
    return [dataclasses.astuple(row) for row in
            record_pipeline(trace, PIPELINE_START, PIPELINE_COUNT,
                            _engine(trace))]


CONSUMERS = {
    "potential": potential,
    "profile_guided": profile_guided,
    "timeline": timeline,
    "timeline_ssmt": timeline_ssmt,
    "speedup": speedup,
    "pipeline": pipeline,
    "pipeline_ssmt": pipeline_ssmt,
}


def digest(consumer, name):
    output = CONSUMERS[consumer](_trace(name))
    return hashlib.sha256(json.dumps(
        output, sort_keys=True, default=_plain).encode("utf-8")).hexdigest()


#: CODE_SCHEMA_VERSION -> (consumer, benchmark) -> sha256 of the
#: sorted-key JSON output
PINNED = {
    3: {
        ("pipeline", "comp"):
            "ee521d3fbb2f3d09a5e12683a15f458351bfd3fe24feadd1838163d679772a3e",
        ("pipeline", "gcc"):
            "0b9c3809749305b22f5d77d06531863286490ab820870714a50a54e3b053201c",
        ("pipeline", "mcf_2k"):
            "538a67b0488dc94303906609e877b779269c6d5cf3a8846df687f1c12c6a011b",
        ("pipeline_ssmt", "comp"):
            "7891396a0ea9556f7b5430a015a3fdfa74bb28b20e37a1457d967c1fb5f720d0",
        ("pipeline_ssmt", "gcc"):
            "a8c7c1d8002e2d44d7e055a1361ae3499599667c3904afffad27f4fa6c501d57",
        ("pipeline_ssmt", "mcf_2k"):
            "5e33ba67697c32894b2f48ccd726194a2029f84dfc9c615fbdc86c8f66eff044",
        ("potential", "comp"):
            "77eae241c2ce64ba6a7fe9425146d62ffa695e2dfcfc1c5a30fe9d2510f71b0b",
        ("potential", "gcc"):
            "d6bf1d96ca140f391afe744a1875b5c17bbfe11558797b0da8a4fa95787460c5",
        ("potential", "mcf_2k"):
            "3696474c849423b717346a2c234bde2d2666eee203a8dc0f701733754ee17b89",
        ("profile_guided", "comp"):
            "8acc000c49ba3ff9311efe40be924d68d8cb8e8706bffca1985cbf8cb33edb4b",
        ("profile_guided", "gcc"):
            "f0c71ae54218e0a173b0fa2556f4df4bb130a61a83747adf5b5068efcce62513",
        ("profile_guided", "mcf_2k"):
            "54785e638718848d06e9ac3035c70cf1c5e77354b0a64037177a824d3fce5567",
        ("speedup", "comp"):
            "7a5a2da8b0156adbec0d6d883fb69fddf58b6b8986dd4da46effb02c9121eb8c",
        ("speedup", "gcc"):
            "d8a66ef595c59e459bbd7ef6bd75915260b2a09fe8df1cd2f271270366ed2f60",
        ("speedup", "mcf_2k"):
            "5d5f59fb7ecbc68ccfa28ba9363c8830433b581f5d15cbe61b699eb9fc3f933b",
        ("timeline", "comp"):
            "60ccfdd2126a2416c6bcddf92035d03fd6a49097ce0666545f791f86f5edc41f",
        ("timeline", "gcc"):
            "1296d4c3459a30770a09bdfeba589cd4746294f823c86b4546258931e5bf41cf",
        ("timeline", "mcf_2k"):
            "cd898025ca8dcb9e66a740988b3bbc335659c9ce44fe2c91b1ee09f04621db7c",
        ("timeline_ssmt", "comp"):
            "c792cd0cbddb1187fe9ec5aecaeb81289eed8c38e95b6729df565ddfda9fee4c",
        ("timeline_ssmt", "gcc"):
            "dad91abdd3ed6485ba5eaf14600039cb9f5d0c343078b5877affb1a0d39b5603",
        ("timeline_ssmt", "mcf_2k"):
            "405e7f4ce6215f3a1e3b8cf7b68cc0d88869bb4155a3d193d59671ca46d06a57",
    },
}


@pytest.mark.parametrize("consumer,name",
                         sorted(itertools.product(CONSUMERS, BENCHMARKS)))
def test_consumer_digest_pinned(consumer, name):
    assert digest(consumer, name) == pinned(PINNED)[consumer, name]


if __name__ == "__main__":
    # Print the table for the running version, ready to paste into PINNED.
    print(f"    {CODE_SCHEMA_VERSION}: {{")
    for consumer, name in sorted(itertools.product(CONSUMERS, BENCHMARKS)):
        print(f"        ({consumer!r}, {name!r}):")
        print(f"            {digest(consumer, name)!r},")
    print("    },")
