"""Tests for the Figure 6 potential engine (oracle difficult paths)."""

from types import SimpleNamespace

import pytest

from repro.branch.unit import BranchPredictorComplex
from repro.core.oracle import PotentialConfig, run_potential
from repro.core.path import PathEvent, PathKey
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.isa.assembler import assemble
from repro.sim.functional import run_program
from repro.kernel import OoOTimingModel

HARD_LOOP = """
.data arr 64 57 3 91 22 68 14 77 41 5 99 33 60 12 84 29 50 73 8 66 95 17 38 55 81 26 62 44 70 11 88 35 58 2 92 20 65 16 79 40 6 97 31 59 13 86 28 52 74 9 67 94 18 39 56 80 27 63 45 71 10 89 36 53 24
    li r1, 0
    li r2, 3000
loop:
    li r14, 2654435761
    mul r3, r1, r14
    srli r3, r3, 5
    andi r3, r3, 63
    li r4, &arr
    add r5, r4, r3
    ld r6, 0(r5)
    li r7, 50
    blt r6, r7, taken
    addi r8, r8, 1
taken:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


@pytest.fixture(scope="module")
def hard_trace():
    return run_program(assemble(HARD_LOOP), max_instructions=40_000)


def fast_potential(**overrides):
    defaults = dict(n=4, training_interval=8)
    defaults.update(overrides)
    return PotentialConfig(**defaults)


class TestPotentialEngine:
    def test_promotes_difficult_paths(self, hard_trace):
        _, engine = run_potential(hard_trace, fast_potential())
        assert len(engine.oracle_paths) > 0
        assert engine.oracle_predictions > 0

    def test_faster_than_baseline(self, hard_trace):
        base = OoOTimingModel().run(hard_trace, BranchPredictorComplex())
        result, _ = run_potential(hard_trace, fast_potential())
        assert result.ipc > base.ipc

    def test_oracle_predictions_always_early_and_correct(self, hard_trace):
        result, _ = run_potential(hard_trace, fast_potential())
        kinds = set(result.prediction_kinds)
        assert kinds <= {"early"}

    def test_mispredicts_reduced(self, hard_trace):
        base = OoOTimingModel().run(hard_trace, BranchPredictorComplex())
        result, _ = run_potential(hard_trace, fast_potential())
        assert result.effective_mispredicts < base.effective_mispredicts

    def test_oracle_takes_no_ssmt_config_or_image(self):
        with pytest.raises(ValueError):
            SSMTEngine(SSMTConfig(), potential=fast_potential())
        with pytest.raises(ValueError):
            SSMTEngine(potential=fast_potential(), image=())

    def test_promoted_capacity_respected(self, hard_trace):
        _, engine = run_potential(hard_trace,
                                  fast_potential(promoted_capacity=2))
        assert len(engine.oracle_paths) <= 2

    def test_high_threshold_promotes_nothing_easy(self):
        """With T=0.99 no path qualifies, so no oracle predictions."""
        trace = run_program(assemble("""
            li r1, 0
            li r2, 2000
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """), max_instructions=10_000)
        _, engine = run_potential(
            trace, fast_potential(difficulty_threshold=0.99))
        assert engine.oracle_predictions == 0


class TestPromotedLRU:
    def test_capacity_two_evicts_least_recently_predicted(self):
        """With room for two paths, promoting a third evicts the path
        whose last promotion or oracle prediction is the oldest."""
        trace = run_program(assemble("li r1, 1\nhalt"))
        _, engine = run_potential(trace, fast_potential(promoted_capacity=2))
        branches = engine.tracker.current_branches()

        def promote(pc):
            key = PathKey(pc, branches)
            engine._promote(PathEvent(key, key.path_id(), 0, 0, False), 0)

        def predicted(pc):
            rec = SimpleNamespace(pc=pc, taken=True, next_pc=pc + 1)
            return engine.lookup_prediction(0, rec, 0) is not None

        promote(100)
        promote(200)
        assert predicted(100)   # 100 is now more recent than 200
        promote(300)
        assert [predicted(pc) for pc in (100, 200, 300)] == [True, False,
                                                             True]
        promote(400)            # 100 was touched before 300
        assert [predicted(pc) for pc in (100, 300, 400)] == [False, True,
                                                             True]
