"""Pinned task-key and payload corpus.

Task keys index every on-disk result cache and every served job, and
result payloads are the cached artifact, so both must stay byte-stable
across refactors that claim to change no simulation.  This module pins
literal keys and payload digests for one point of every task shape:
the four kinds on gcc/2000, a predictor-zoo point, a sampled point and
a scaled-width point, plus one digest over the baseline and SSMT keys
of every suite benchmark (each key hashes its benchmark's whole
``WorkloadSpec``).

A change that moves any literal here either changes simulator semantics
(bump ``CODE_SCHEMA_VERSION`` and re-pin) or is a bug.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.branch.zoo.config import PredictorConfig
from repro.kernel.sampling import SampleSpec
from repro.parallel.sweep import build_grid
from repro.parallel.taskkey import SweepTask
from repro.parallel.worker import run_task
from repro.workloads import BENCHMARK_NAMES


def _widths_point() -> SweepTask:
    """The SSMT point of a one-benchmark ``widths=[8]`` grid."""
    (task,) = [t for t in build_grid(["gcc"], 2000, widths=[8])
               if t.kind == "ssmt"]
    return task


CORPUS = {
    "ssmt": lambda: SweepTask(kind="ssmt", benchmark="gcc",
                              instructions=2000),
    "baseline": lambda: SweepTask(kind="baseline", benchmark="gcc",
                                  instructions=2000),
    "oracle": lambda: SweepTask(kind="oracle", benchmark="gcc",
                                instructions=2000),
    "potential": lambda: SweepTask(kind="potential", benchmark="gcc",
                                   instructions=2000),
    "zoo": lambda: SweepTask(kind="ssmt", benchmark="gcc",
                             instructions=2000,
                             predictor=PredictorConfig(scheme="tage")),
    "sampled": lambda: SweepTask(kind="ssmt", benchmark="gcc",
                                 instructions=2000,
                                 sample=SampleSpec(interval=1000,
                                                   warmup=200)),
    "widths": _widths_point,
}

#: name -> (task key, sha256 of the sorted-key JSON payload)
PINNED = {
    "baseline": ("7f8eb03189ed4e78406912ad18359dd0134ef80c7e4c84bda0f0766a8c95e64d",
                 "360f2615a2a914be11d21919b3d31db40dfef227013f5683e7f5f98815d972c2"),
    "oracle": ("a33680bbdd4ede5b8dc6585ba85bae133777397fbcf7d227b63b11a07640451d",
               "5724533c51d87efefc4b31ca1ae2c672fcfcdd030043bd58bc5fda4b57e64e34"),
    "potential": ("0d05506c392098e2b0984395c9451ed89a7f1438d99784562d323b6e19576e97",
                  "a26b8f00a34132b41a04a4207f3e58cadbe1a367225149fd43718838751dda6f"),
    "sampled": ("54b49d84249069d5ea234836b216b4167c5a22dfd78fa7a6b01e4de227c1e392",
                "9c8dd9688e2fb63058f4020a411cb388304cc422cbd76078a68f9e4c19e0ecbb"),
    "ssmt": ("86f3287a42761f272fc3da6930b9248eb2f5b8acea06a98130560dd234b71440",
             "e662e6ac2f42f5ed8c23c84d80ea1a8bf195d826886be80d85030f18db35b9a5"),
    "widths": ("1ce1f4897f0081326e9d33c3051ae20896d208aa448f7d526cf27b7a62f9b3b2",
               "c3fbe1edfb39fab4966985849bc618bc02e7e6fb5149fdc4ff06b472b33cbd4b"),
    "zoo": ("c37e38c13cac5af982b1e4ef180526c88a70991af6242ad1b025922d9a02a0cd",
            "5cf743bb8744c84ce429011c3f5072b51afaf209ff86e45049015849905700fb"),
}

#: SHA-256 over the newline-joined ``baseline`` and ``ssmt`` keys of all
#: 20 suite benchmarks at 2000 instructions, in suite order.
SUITE_KEYS_DIGEST = (
    "c9e9862d634e240453ee19483618f712f6f66ce2b7ba08720be91f709e96bf3e")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_task_key_pinned(name):
    assert CORPUS[name]().key == PINNED[name][0]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_payload_digest_pinned(name):
    payload = run_task(CORPUS[name]())
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == PINNED[name][1]


def test_suite_keys_digest_pinned():
    keys = [SweepTask(kind=kind, benchmark=name, instructions=2000).key
            for name in BENCHMARK_NAMES for kind in ("baseline", "ssmt")]
    assert len(set(keys)) == 40
    digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
    assert digest == SUITE_KEYS_DIGEST


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_key_survives_pickling(name):
    """Process-pool workers receive tasks pickled; the key must not move."""
    task = CORPUS[name]()
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task
    assert clone.key == task.key == PINNED[name][0]


def test_replace_gets_a_fresh_key():
    task = CORPUS["ssmt"]()
    longer = dataclasses.replace(task, instructions=4000)
    assert longer.key != task.key
    assert longer.key == SweepTask(kind="ssmt", benchmark="gcc",
                                   instructions=4000).key
    assert dataclasses.replace(task).key == task.key


def test_equality_and_hash_follow_the_fields():
    """Tasks compare and hash by their fields alone.  The label is left
    out of the key but not out of equality."""
    a, b = CORPUS["baseline"](), CORPUS["baseline"]()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    relabelled = dataclasses.replace(a, label="other")
    assert relabelled.key == a.key
    assert relabelled != a
    assert CORPUS["ssmt"]() == CORPUS["ssmt"]()
