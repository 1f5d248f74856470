"""Tests for the Figure 6 potential engine (oracle difficult paths)."""

import pytest

from repro.branch.unit import BranchPredictorComplex
from repro.core.oracle import PotentialConfig, run_potential
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
        assert engine.promoted_count > 0
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

    def test_promoted_capacity_respected(self, hard_trace):
        _, engine = run_potential(hard_trace,
                                  fast_potential(promoted_capacity=2))
        assert engine.promoted_count <= 2

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
