"""Behavioural tests of SSMT engine corner cases: demotion, eviction,
prediction-cache keying, builder retry, branch-mode classification."""


from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_ssmt
from repro.isa.assembler import assemble
from repro.sim.functional import run_program
from repro.kernel import OoOTimingModel

# Phase-change program: the branch is data-driven (difficult) for the
# first phase, then the selector makes it constant (easy).  Difficult
# paths must be promoted in phase 1 and demoted during phase 2.
PHASED = """
.data arr 64 57 3 91 22 68 14 77 41 5 99 33 60 12 84 29 50 73 8 66 95 17 38 55 81 26 62 44 70 11 88 35 58 2 92 20 65 16 79 40 6 97 31 59 13 86 28 52 74 9 67 94 18 39 56 80 27 63 45 71 10 89 36 53 24
    li r1, 0
    li r2, 6000
    li r20, 3000
loop:
    bge r1, r20, easy_phase
    li r14, 2654435761
    mul r3, r1, r14
    srli r3, r3, 5
    andi r3, r3, 63
    li r4, &arr
    add r5, r4, r3
    ld r6, 0(r5)
    jmp have_value
easy_phase:
    li r6, 10
have_value:
    jmp h1
h1:
    li r7, 50
    blt r6, r7, taken
    addi r8, r8, 1
taken:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


def small_config(**overrides):
    defaults = dict(n=4, training_interval=8, build_latency=20)
    defaults.update(overrides)
    return SSMTConfig(**defaults)


class TestDemotion:
    def test_paths_demoted_when_phase_changes(self):
        trace = run_program(assemble(PHASED), max_instructions=120_000)
        _, engine = run_ssmt(trace, small_config())
        stats = engine.path_cache.stats
        assert stats.promotions > 0
        assert stats.demotions > 0

    def test_microram_shrinks_after_demotion(self):
        trace = run_program(assemble(PHASED), max_instructions=120_000)
        _, engine = run_ssmt(trace, small_config())
        # By the end of the easy phase only the (new) easy-phase state
        # remains; difficult-phase routines were demoted.
        assert len(engine.microram) < engine.microram.insertions


class TestMicroRAMPressure:
    def test_tiny_microram_evicts_and_clears_promoted(self):
        trace = run_program(assemble(PHASED), max_instructions=60_000)
        _, engine = run_ssmt(trace, small_config(microram_entries=2))
        assert len(engine.microram) <= 2
        if engine.microram.evictions:
            # Evicted paths can re-promote later: promotions exceed
            # the MicroRAM's resident count.
            assert engine.path_cache.stats.promotions > len(engine.microram)


class TestBuilderRetry:
    def test_busy_builder_leads_to_retry_and_eventual_build(self):
        trace = run_program(assemble(PHASED), max_instructions=60_000)
        _, engine = run_ssmt(trace, small_config(build_latency=3000))
        stats = engine.builder.stats
        # with a huge build latency, many requests hit a busy builder...
        assert stats.refused_busy > 0
        # ...but promotion requests keep retrying and some succeed.
        assert stats.built >= 1


class TestBranchModeClassification:
    def test_branch_mode_tracks_by_pc(self):
        trace = run_program(assemble(PHASED), max_instructions=60_000)
        _, engine = run_ssmt(trace, small_config(classify_by_branch=True))
        assert engine.builder.stats.built > 0
        # every MicroRAM key is branch-level (empty path tuple)
        for key in list(engine.microram._by_key):
            assert key.branches == ()

    def test_branch_mode_predictions_consumed(self):
        trace = run_program(assemble(PHASED), max_instructions=60_000)
        result, engine = run_ssmt(trace, small_config(classify_by_branch=True))
        assert sum(engine.prediction_kind_counts.values()) > 0


class TestStashHygiene:
    def test_pending_mispredict_stash_bounded(self):
        """Warm-up (partial) path events must still consume stashed
        outcomes (regression for a slow leak)."""
        trace = run_program(assemble(PHASED), max_instructions=30_000)
        _, engine = run_ssmt(trace, small_config())
        assert len(engine._pending_mispredict) == 0


class TestEngineIsolation:
    def test_two_runs_do_not_share_state(self):
        trace = run_program(assemble(PHASED), max_instructions=30_000)
        _, first = run_ssmt(trace, small_config())
        _, second = run_ssmt(trace, small_config())
        assert first is not second
        assert first.builder.stats.built == second.builder.stats.built

    def test_engine_without_memory_image_runs(self):
        """Microthreads read zeros for unknown memory: predictions may be
        wrong but nothing crashes (and violation handling still works)."""
        trace = run_program(assemble(PHASED), max_instructions=30_000)
        engine = SSMTEngine(small_config())  # no initial_memory
        result = OoOTimingModel().run(trace, BranchPredictorComplex(),
                                      engine)
        assert result.instructions == len(trace)
