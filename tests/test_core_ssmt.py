"""End-to-end tests of the SSMT engine on small crafted programs."""

import pytest

from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_ssmt
from repro.isa.assembler import assemble
from repro.sim.functional import run_program
from repro.kernel import OoOTimingModel

# A loop with a data-dependent branch whose predicate is fully computable
# from in-scope instructions: prime microthread territory.
DATA_LOOP = """
.data arr 64 57 3 91 22 68 14 77 41 5 99 33 60 12 84 29 50 73 8 66 95 17 38 55 81 26 62 44 70 11 88 35 58 2 92 20 65 16 79 40 6 97 31 59 13 86 28 52 74 9 67 94 18 39 56 80 27 63 45 71 10 89 36 53 24
    li r1, 0
    li r2, 4000
loop:
    li r14, 2654435761
    mul r3, r1, r14
    srli r3, r3, 5
    andi r3, r3, 63
    li r4, &arr
    add r5, r4, r3
    ld r6, 0(r5)
    jmp h1
h1:
    addi r9, r9, 1
    jmp h2
h2:
    li r7, 50
    blt r6, r7, taken
    addi r8, r8, 1
taken:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


def fast_config(**overrides):
    """Small structures + short training so tests converge quickly."""
    defaults = dict(n=4, training_interval=8, build_latency=20)
    defaults.update(overrides)
    return SSMTConfig(**defaults)


@pytest.fixture(scope="module")
def data_trace():
    return run_program(assemble(DATA_LOOP), max_instructions=40_000)


class TestEndToEnd:
    def test_machine_learns_and_predicts(self, data_trace):
        result, engine = run_ssmt(data_trace, fast_config())
        assert engine.builder.stats.built > 0
        assert engine.spawner.stats.spawned > 0
        assert engine.prediction_cache.stats.writes > 0
        used = (engine.correct_microthread_predictions
                + engine.incorrect_microthread_predictions)
        assert used > 0
        # pre-computation should be overwhelmingly correct
        assert engine.correct_microthread_predictions > 10 * max(
            1, engine.incorrect_microthread_predictions)

    def test_speedup_over_baseline(self, data_trace):
        base = OoOTimingModel().run(data_trace, BranchPredictorComplex())
        result, _ = run_ssmt(data_trace, fast_config())
        assert result.ipc > base.ipc

    def test_effective_mispredicts_reduced(self, data_trace):
        base = OoOTimingModel().run(data_trace, BranchPredictorComplex())
        result, _ = run_ssmt(data_trace, fast_config())
        # early correct predictions remove mispredictions outright
        assert result.effective_mispredicts < base.effective_mispredicts

    def test_overhead_only_mode_uses_no_predictions(self, data_trace):
        result, engine = run_ssmt(data_trace,
                                  fast_config(use_predictions=False))
        assert engine.spawner.stats.spawned > 0     # threads still run
        assert result.prediction_kinds == {}        # but never consumed
        assert result.hw_mispredicts == result.effective_mispredicts

    def test_prediction_kinds_recorded(self, data_trace):
        result, engine = run_ssmt(data_trace, fast_config())
        assert sum(result.prediction_kinds.values()) > 0
        assert set(result.prediction_kinds) <= {
            "early", "late_agree", "late_useful", "late_harmful", "useless"
        }
        assert result.prediction_kinds == engine.prediction_kind_counts

    def test_report_structure(self, data_trace):
        _, engine = run_ssmt(data_trace, fast_config())
        report = engine.report()
        for key in ("path_cache", "builder", "spawn", "prediction_cache",
                    "prediction_kinds", "microram_routines"):
            assert key in report

    def test_pruning_config_produces_vp_nodes(self, data_trace):
        _, engine = run_ssmt(data_trace, fast_config(pruning=True))
        assert engine.builder.stats.value_pruned > 0

    def test_no_pruning_config_produces_none(self, data_trace):
        _, engine = run_ssmt(data_trace, fast_config(pruning=False))
        assert engine.builder.stats.value_pruned == 0
        assert engine.builder.stats.address_pruned == 0


STORE_INTERFERENCE = """
.data arr 64 57 3 91 22 68 14 77 41 5 99 33 60 12 84 29 50 73 8 66 95 17 38 55 81 26 62 44 70 11 88 35 58 2 92 20 65 16 79 40 6 97 31 59 13 86 28 52 74 9 67 94 18 39 56 80 27 63 45 71 10 89 36 53 24
    li r1, 0
    li r2, 4000
loop:
    li r14, 2654435761
    mul r3, r1, r14
    srli r3, r3, 5
    andi r3, r3, 63
    li r4, &arr
    add r5, r4, r3
    jmp h0
h0:
    andi r10, r1, 7
    li r11, 3
    bne r10, r11, nostore
    andi r12, r1, 63
    st r12, 0(r5)
nostore:
    ld r6, 0(r5)
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


class TestMemoryDependenceSpeculation:
    def test_violations_detected_and_rebuilt(self):
        trace = run_program(assemble(STORE_INTERFERENCE),
                            max_instructions=50_000)
        result, engine = run_ssmt(trace, fast_config())
        # every 8th iteration stores to the address the microthread loads
        assert engine.spawner.stats.memdep_violations > 0
        assert engine.builder.stats.rebuilds > 0

    def test_violated_predictions_not_consumed(self):
        trace = run_program(assemble(STORE_INTERFERENCE),
                            max_instructions=50_000)
        _, engine = run_ssmt(trace, fast_config())
        assert engine.prediction_cache.stats.invalidations > 0


class TestAbortMechanism:
    def test_aborts_occur_on_divergent_paths(self, data_trace):
        _, engine = run_ssmt(data_trace, fast_config())
        stats = engine.spawner.stats
        # DATA_LOOP's terminating branch alternates sides, so spawned
        # microthreads frequently see a path deviation.
        assert stats.aborted_active > 0 or stats.pre_allocation_aborts > 0

    def test_abort_disabled_still_correct(self, data_trace):
        result, engine = run_ssmt(data_trace, fast_config(abort_enabled=False))
        assert engine.spawner.stats.aborted_active == 0
        assert engine.spawner.stats.pre_allocation_aborts == 0
        # Stale (path-mismatched) predictions are filtered by the
        # (Path_Id, Seq_Num) match, so accuracy holds even without aborts.
        assert result.ipc > 0


class TestEngineStateTracking:
    def test_reg_values_follow_architectural_state(self, data_trace):
        engine = SSMTEngine(fast_config(),
                            initial_memory=data_trace.initial_memory)
        OoOTimingModel().run(data_trace, BranchPredictorComplex(),
                             engine)
        # r2 holds the loop bound 4000 throughout
        assert engine.reg_values[2] == 4000

    def test_memory_image_follows_stores(self):
        trace = run_program(assemble(STORE_INTERFERENCE),
                            max_instructions=20_000)
        engine = SSMTEngine(fast_config(),
                            initial_memory=trace.initial_memory)
        OoOTimingModel().run(trace, BranchPredictorComplex(),
                             engine)
        stores = [r for r in trace if r.inst.is_store]
        last = stores[-1]
        assert engine.memory[last.ea] == last.result

    def test_unstored_address_reads_the_data_segment(self):
        engine = SSMTEngine(fast_config(), initial_memory={0x100: 42})
        assert engine._memory_read(0x100) == 42
        assert engine._memory_read(0x200) == 0
        engine.memory[0x100] = 7
        assert engine._memory_read(0x100) == 7

    @pytest.mark.parametrize("loop", ["fused", "reference", "sampled"])
    def test_run_leaves_the_data_segment_untouched(self, loop):
        from repro.kernel.sampling import SampleSpec
        from repro.perf.reference import ReferenceTimingModel

        trace = run_program(assemble(STORE_INTERFERENCE),
                            max_instructions=20_000)
        before = dict(trace.initial_memory)
        if loop == "reference":
            engine = SSMTEngine(fast_config(),
                                initial_memory=trace.initial_memory)
            ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                       engine)
        else:
            sample = SampleSpec(interval=5_000) if loop == "sampled" else None
            _, engine = run_ssmt(trace, fast_config(), sample=sample)
        assert any(r.inst.is_store and before.get(r.ea) != r.result
                   for r in trace)
        assert trace.initial_memory == before


class TestConfig:
    def test_default_config_matches_paper(self):
        cfg = SSMTConfig()
        assert cfg.n == 10
        assert cfg.difficulty_threshold == 0.10
        assert cfg.path_cache_entries == 8192
        assert cfg.training_interval == 32
        assert cfg.prb_capacity == 512
        assert cfg.build_latency == 100
        assert cfg.microram_entries == 8192
        assert cfg.prediction_cache_entries == 128

    def test_sub_configs_derive(self):
        cfg = SSMTConfig(difficulty_threshold=0.15, mcb_capacity=32)
        assert cfg.path_cache_config().difficulty_threshold == 0.15
        assert cfg.builder_config().mcb_capacity == 32
