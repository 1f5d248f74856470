"""Pinned task-key and payload corpus.

Task keys index every on-disk result cache and every served job, and
result payloads are the cached artifact, so both must stay byte-stable
across refactors that claim to change no simulation.  This module pins
literal keys and payload digests for one point of every task shape:
the four kinds on gcc/2000, a predictor-zoo point, a sampled point and
a scaled-width point.  The ``suite`` entry covers the mechanism itself:
the baseline and SSMT points of all 20 benchmarks at 20,000
instructions under a fast-training config that spawns microthreads on
every one of them.  The ``zoo_*`` entries run gcc that way under each
other zoo scheme.  A list entry pins one digest over its keys and one
over its payloads.  One more digest covers the baseline and SSMT keys
of every suite benchmark at 2000 instructions (each key hashes its
benchmark's whole ``WorkloadSpec``).

This is the payload gate behind ``CODE_SCHEMA_VERSION``, the version
every task key hashes (``docs/lint.md``).  The tables are keyed by the
version they were pinned under, and the tests read the running
version's table, so two things fail: a key or digest that moves while
the version stays, and a version bump that adds no table.  A change
that moves a literal here either changes simulator semantics (bump the
version and add its table; ``PYTHONPATH=src python -m
tests.test_taskkey_corpus`` prints one) or is a bug.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.branch.zoo.config import PredictorConfig
from repro.core.ssmt import SSMTConfig
from repro.kernel.sampling import SampleSpec
from repro.parallel.sweep import build_grid
from repro.parallel.taskkey import SweepTask
from repro.parallel.worker import run_task
from repro.schemas import CODE_SCHEMA_VERSION
from repro.workloads import BENCHMARK_NAMES


def _widths_point() -> SweepTask:
    """The SSMT point of a one-benchmark ``widths=[8]`` grid."""
    (task,) = [t for t in build_grid(["gcc"], 2000, widths=[8])
               if t.kind == "ssmt"]
    return task


#: fast training and a low difficulty threshold, so every benchmark
#: promotes paths and spawns microthreads within 20,000 instructions
SUITE_CONFIG = SSMTConfig(n=4, training_interval=4, build_latency=20,
                          difficulty_threshold=0.05)


def _suite_points():
    """Baseline and SSMT of every suite benchmark, in suite order."""
    return [SweepTask(kind=kind, benchmark=name, instructions=20_000,
                      config=SUITE_CONFIG if kind == "ssmt" else None)
            for name in BENCHMARK_NAMES for kind in ("baseline", "ssmt")]


def _zoo_point(scheme):
    """gcc under one zoo scheme, long enough to spawn microthreads: at
    2000 instructions a perceptron training-threshold edit goes unseen."""
    return lambda: SweepTask(kind="ssmt", benchmark="gcc",
                             instructions=20_000, config=SUITE_CONFIG,
                             predictor=PredictorConfig(scheme=scheme))


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
    "zoo_bimodal": _zoo_point("bimodal"),
    "zoo_gshare": _zoo_point("gshare"),
    "zoo_pas": _zoo_point("pas"),
    "zoo_perceptron": _zoo_point("perceptron"),
    "zoo_h2p": _zoo_point("h2p"),
    "sampled": lambda: SweepTask(kind="ssmt", benchmark="gcc",
                                 instructions=2000,
                                 sample=SampleSpec(interval=1000,
                                                   warmup=200)),
    "widths": _widths_point,
    "suite": _suite_points,
}

#: CODE_SCHEMA_VERSION -> name -> (task key, sha256 of the sorted-key
#: JSON payload).  A list entry pins a digest over its newline-joined
#: keys and one over the JSON list of its payloads.
PINNED = {
    3: {
        "baseline": ("7f8eb03189ed4e78406912ad18359dd0134ef80c7e4c84bda0f0766a8c95e64d",
                     "360f2615a2a914be11d21919b3d31db40dfef227013f5683e7f5f98815d972c2"),
        "oracle": ("a33680bbdd4ede5b8dc6585ba85bae133777397fbcf7d227b63b11a07640451d",
                   "5724533c51d87efefc4b31ca1ae2c672fcfcdd030043bd58bc5fda4b57e64e34"),
        "potential": ("0d05506c392098e2b0984395c9451ed89a7f1438d99784562d323b6e19576e97",
                      "a26b8f00a34132b41a04a4207f3e58cadbe1a367225149fd43718838751dda6f"),
        "sampled": ("54b49d84249069d5ea234836b216b4167c5a22dfd78fa7a6b01e4de227c1e392",
                    "9c8dd9688e2fb63058f4020a411cb388304cc422cbd76078a68f9e4c19e0ecbb"),
        "suite": ("b425bfe2ede173f6ca1c3d707e3673e61874f05fe98779a70114816260753eb7",
                  "d7f74d02f48220c976abc99107a29a61ddb52b19e008bf7346bd86b9250fb917"),
        "ssmt": ("86f3287a42761f272fc3da6930b9248eb2f5b8acea06a98130560dd234b71440",
                 "e662e6ac2f42f5ed8c23c84d80ea1a8bf195d826886be80d85030f18db35b9a5"),
        "widths": ("1ce1f4897f0081326e9d33c3051ae20896d208aa448f7d526cf27b7a62f9b3b2",
                   "c3fbe1edfb39fab4966985849bc618bc02e7e6fb5149fdc4ff06b472b33cbd4b"),
        "zoo": ("c37e38c13cac5af982b1e4ef180526c88a70991af6242ad1b025922d9a02a0cd",
                "5cf743bb8744c84ce429011c3f5072b51afaf209ff86e45049015849905700fb"),
        "zoo_bimodal": ("7d8ebf70067763bd6e5c994acb2930cf28e815a99ebc4bc1e649ea42edad4c53",
                        "26a2e55aff28170b8317298be2b76b527408eb073f5f7d554787b8394532fffa"),
        "zoo_gshare": ("7cbbaee8d846e39de985741eb10f2519d8eddf3f23cb72367d9b99e3607f5bac",
                       "68056681a52268362b8ae96c11c77174a54594d27500112006c9115cb34415e6"),
        "zoo_h2p": ("03b15d6bf9ec57437ef0c9e43e6dc98932270d604bf42ed537727eed9f60abf1",
                    "b0b900d6a5cb0a7148372a5850422e8fecfb7f831717a67e6e2ab523811835d4"),
        "zoo_pas": ("3e2a8af4d1439d1c1ba6af976310b86823d36fab42a855a6d9814195b24db0a3",
                    "84f04334b707fea7cc0f4542b849729dc63dd0bc6655f1b095a5c3a002ff89f7"),
        "zoo_perceptron": ("f3f64b60f6354ff6aeba11e05e7521fa43265682b77e72ca08117062a939e356",
                           "c611d8512dd23dc0b1e411b15e0bc9b0a583da62f43e4c70e77839a0cb1ed6ab"),
    },
}

#: CODE_SCHEMA_VERSION -> SHA-256 over the newline-joined ``baseline``
#: and ``ssmt`` keys of all 20 suite benchmarks at 2000 instructions, in
#: suite order.
SUITE_KEYS_DIGEST = {
    3: "c9e9862d634e240453ee19483618f712f6f66ce2b7ba08720be91f709e96bf3e",
}


def pinned(table):
    """``table``'s entry for the running ``CODE_SCHEMA_VERSION``."""
    if CODE_SCHEMA_VERSION not in table:
        pytest.fail(f"nothing is pinned under CODE_SCHEMA_VERSION "
                    f"{CODE_SCHEMA_VERSION}: a version bump adds a table "
                    f"for the new version")
    return table[CODE_SCHEMA_VERSION]


def _tasks(name):
    point = CORPUS[name]()
    return point if isinstance(point, list) else [point]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_key(tasks):
    """A task's key, or a digest over a list entry's keys."""
    keys = [task.key for task in tasks]
    return keys[0] if len(keys) == 1 else _sha256("\n".join(keys))


def payload_digest(name):
    """SHA-256 of the sorted-key JSON payload (a list for a list entry)."""
    payloads = [run_task(task) for task in _tasks(name)]
    return _sha256(json.dumps(payloads[0] if len(payloads) == 1
                              else payloads, sort_keys=True))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_task_key_pinned(name):
    assert corpus_key(_tasks(name)) == pinned(PINNED)[name][0]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_payload_digest_pinned(name):
    assert payload_digest(name) == pinned(PINNED)[name][1]


def suite_keys_digest():
    keys = [SweepTask(kind=kind, benchmark=name, instructions=2000).key
            for name in BENCHMARK_NAMES for kind in ("baseline", "ssmt")]
    assert len(set(keys)) == 40
    return _sha256("\n".join(keys))


def test_suite_keys_digest_pinned():
    assert suite_keys_digest() == pinned(SUITE_KEYS_DIGEST)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_key_survives_pickling(name):
    """Process-pool workers receive tasks pickled; the key must not move."""
    tasks = _tasks(name)
    clones = [pickle.loads(pickle.dumps(task)) for task in tasks]
    assert clones == tasks
    assert (corpus_key(clones) == corpus_key(tasks)
            == pinned(PINNED)[name][0])


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


if __name__ == "__main__":
    # Print the table for the running version, ready to paste into PINNED.
    print(f"    {CODE_SCHEMA_VERSION}: {{")
    for name in sorted(CORPUS):
        print(f"        {name!r}: ({corpus_key(_tasks(name))!r},")
        print(f"            {payload_digest(name)!r}),")
    print("    },")
    print(f"SUITE_KEYS_DIGEST {CODE_SCHEMA_VERSION}: {suite_keys_digest()!r}")
