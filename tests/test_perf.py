"""The hot-path optimization pass must not change simulation semantics.

Every rewrite in the ``repro.perf`` PR claims bit-identity with what it
replaced; this module is where each claim is checked against an oracle:

* the ``array``-backed :class:`SaturatingCounterTable` against the seed
  list-backed :class:`ReferenceSaturatingCounterTable` (including
  saturation boundaries at 1/2/3-bit widths),
* every predictor's fused ``predict_and_update`` against a split
  ``predict`` + ``update`` twin — prediction stream *and* internal
  state,
* the :class:`PathTracker`'s incremental ``Path_Id`` hash against the
  :func:`path_id_hash` reference recompute,
* plus a smoke test of the :class:`ProfileHarness` artifact itself.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.base import SaturatingCounterTable
from repro.branch.gshare import GsharePredictor
from repro.branch.hybrid import HybridPredictor
from repro.branch.pas import PAsPredictor
from repro.core.path import PathTracker, path_id_hash
from repro.isa.instructions import Instruction, Opcode
from repro.perf import ProfileHarness, ReferenceSaturatingCounterTable
from repro.perf.harness import classify
from repro.sim.trace import DynamicInstruction

# -- SaturatingCounterTable: array backing vs the seed list backing ------------


def test_counter_table_initial_state_matches_reference():
    for bits in (1, 2, 3, 5, 7, 8):
        fast = SaturatingCounterTable(16, bits=bits)
        ref = ReferenceSaturatingCounterTable(16, bits=bits)
        assert list(fast.table) == ref.table
        assert (fast.threshold, fast.max_value) == (ref.threshold,
                                                    ref.max_value)


def test_counter_saturates_at_max_and_min():
    """Boundary behavior per width: no wrap past 0 or 2**bits - 1."""
    for bits in (1, 2, 3):
        table = SaturatingCounterTable(4, bits=bits)
        top = (1 << bits) - 1
        for _ in range(top + 3):        # overshoot on purpose
            table.update(0, taken=True)
        assert table.counter(0) == top
        assert table.predict(0)
        for _ in range(top + 3):
            table.update(0, taken=False)
        assert table.counter(0) == 0
        assert not table.predict(0)
        # One increment from the floor must land at exactly 1.
        table.update(0, taken=True)
        assert table.counter(0) == 1


def test_one_bit_counter_flips_in_one_update():
    table = SaturatingCounterTable(2, bits=1)
    assert table.predict(0)             # starts at threshold (taken)
    table.update(0, taken=False)
    assert not table.predict(0)
    table.update(0, taken=True)
    assert table.predict(0)


@settings(max_examples=50)
@given(st.integers(1, 8), st.integers(0, 6),
       st.lists(st.tuples(st.integers(0, 2**20), st.booleans()),
                max_size=300))
def test_counter_table_bit_identical_to_reference(bits, log_entries, stream):
    entries = 1 << log_entries
    fast = SaturatingCounterTable(entries, bits=bits)
    ref = ReferenceSaturatingCounterTable(entries, bits=bits)
    for index, taken in stream:
        assert fast.predict(index) == ref.predict(index)
        fast.update(index, taken)
        ref.update(index, taken)
    assert list(fast.table) == ref.table


# -- fused predict_and_update vs the split sequence ----------------------------

_PREDICTORS = {
    "gshare": lambda: GsharePredictor(entries=256, history_bits=6),
    "pas": lambda: PAsPredictor(history_entries=16, history_bits=4,
                                pht_sets=4),
    "hybrid": lambda: HybridPredictor(
        gshare=GsharePredictor(entries=256, history_bits=6),
        pas=PAsPredictor(history_entries=16, history_bits=4, pht_sets=4),
        selector_entries=64),
}


def _state(predictor):
    """Full observable predictor state, tables included."""
    if isinstance(predictor, HybridPredictor):
        return (_state(predictor.gshare), _state(predictor.pas),
                list(predictor.selector.table),
                predictor.used_gshare_count, predictor.used_pas_count)
    if isinstance(predictor, GsharePredictor):
        return (list(predictor.table.table), predictor.history)
    return (list(predictor.pht.table), list(predictor.bht))


@settings(max_examples=40)
@given(st.sampled_from(sorted(_PREDICTORS)),
       st.lists(st.tuples(st.integers(0, 2**16), st.booleans()),
                max_size=200))
def test_fused_predict_and_update_is_bit_identical(name, stream):
    fused = _PREDICTORS[name]()
    split = _PREDICTORS[name]()
    for pc, taken in stream:
        expected = split.predict(pc)
        split.update(pc, taken)
        assert fused.predict_and_update(pc, taken) == expected
        assert _state(fused) == _state(split)


# -- PathTracker incremental hash vs reference recompute -----------------------


def _control_rec(pc, taken, seq=0):
    inst = Instruction(Opcode.BEQ, rd=0, rs1=1, rs2=2, imm=4, pc=pc)
    return DynamicInstruction(seq=seq, inst=inst, taken=taken,
                              next_pc=pc + (8 if taken else 4))


@settings(max_examples=40)
@given(st.integers(1, 12), st.sampled_from([1, 2, 8, 16, 24]),
       st.lists(st.tuples(st.integers(0, 2**32), st.booleans()),
                max_size=200))
def test_incremental_path_id_matches_reference_hash(n, bits, stream):
    tracker = PathTracker(n, id_bits=bits)
    for idx, (pc, taken) in enumerate(stream):
        event = tracker.observe(_control_rec(pc, taken), idx)
        window = tracker.current_branches()
        assert tracker.current_path_id() == path_id_hash(window, bits)
        if event is not None:
            assert event.path_id == path_id_hash(event.key.branches, bits)
            assert len(window) <= n


def test_path_tracker_reset_clears_incremental_hash():
    tracker = PathTracker(4)
    for idx in range(10):
        tracker.observe(_control_rec(0x1000 + 8 * idx, True), idx)
    assert tracker.current_path_id() != 0
    tracker.reset()
    assert tracker.current_path_id() == 0
    assert tracker.current_branches() == ()


# -- ProfileHarness ------------------------------------------------------------


def test_classify_buckets_by_module_path():
    assert classify("/x/src/repro/branch/gshare.py") == "branch_unit"
    assert classify("/x/src/repro/core/path_cache.py") == "path_cache"
    assert classify("/x/src/repro/core/path.py") == "path_tracking"
    assert classify("/x/src/repro/telemetry/sampler.py") == "telemetry"
    assert classify("~") == "other"
    assert classify("C:\\x\\repro\\uarch\\timing.py".replace("\\", "/")) \
        == "timing_model"
    assert classify("/x/src/repro/kernel/batched.py") == "kernel"


def test_profile_harness_emits_repro_perf_artifact(tmp_path):
    report = ProfileHarness("comp", instructions=2_000, top=5).run()
    out = tmp_path / "perf.json"
    report.write(str(out))
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro.perf/1"
    assert payload["benchmark"] == "comp"
    assert payload["instructions"] == 2_000
    assert payload["instructions_per_second"] > 0
    subsystems = payload["subsystems"]
    # The engine's core loops must all be visible in the breakdown.
    for name in ("timing_model", "ssmt_engine", "prb", "branch_unit"):
        assert name in subsystems, f"missing {name} bucket"
        assert subsystems[name]["calls"] > 0
    total_fraction = sum(row["fraction"] for row in subsystems.values())
    assert abs(total_fraction - 1.0) < 1e-6
    assert len(payload["top_functions"]) <= 5
    assert report.format_table().splitlines()[0].startswith("subsystem")


def test_profile_harness_telemetry_mode_buckets_telemetry_time():
    report = ProfileHarness("comp", instructions=2_000,
                            telemetry=True).run()
    assert report.payload["telemetry_attached"] is True
    assert "telemetry" in report.subsystems


# -- deterministic replay: optimizations must not perturb simulation -----------


def test_random_counter_walk_regression():
    """A fixed-seed random walk pins the exact counter trajectory."""
    rng = random.Random(1234)
    table = SaturatingCounterTable(64, bits=2)
    ref = ReferenceSaturatingCounterTable(64, bits=2)
    for _ in range(2_000):
        index, taken = rng.randrange(1 << 16), rng.random() < 0.6
        table.update(index, taken)
        ref.update(index, taken)
    assert list(table.table) == ref.table
