"""Tests for the profile-guided (compile-time) variant and the dynamic
engine's extension knobs (throttling, repeated-violation rebuilds)."""

from types import SimpleNamespace

import pytest

from repro.analysis.experiments import baseline_run
from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, SSMTEngine, run_ssmt
from repro.core.static import (
    prebuild_microthreads,
    profile_difficult_paths,
    run_profile_guided,
)
from repro.isa.assembler import assemble
from repro.kernel import OoOTimingModel
from repro.sim.functional import run_program
from repro.workloads import benchmark_trace

from .test_core_ssmt import STORE_INTERFERENCE as SSMT_STORE_INTERFERENCE

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
    li r7, 50
    blt r6, r7, taken
    addi r8, r8, 1
taken:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""

STORE_INTERFERENCE = DATA_LOOP.replace(
    "    ld r6, 0(r5)\n",
    """    andi r10, r1, 7
    li r11, 3
    bne r10, r11, nostore
    andi r12, r1, 63
    st r12, 0(r5)
nostore:
    ld r6, 0(r5)
""")


@pytest.fixture(scope="module")
def data_trace():
    return run_program(assemble(DATA_LOOP), max_instructions=40_000)


def small_config(**overrides):
    defaults = dict(n=4, training_interval=8, build_latency=20)
    defaults.update(overrides)
    return SSMTConfig(**defaults)


class TestProfiling:
    def test_difficult_paths_found(self, data_trace):
        paths = profile_difficult_paths(data_trace, n=4, threshold=0.10)
        assert paths
        assert all(p.mispredict_rate > 0.10 for p in paths)

    def test_sorted_by_damage(self, data_trace):
        paths = profile_difficult_paths(data_trace, n=4)
        damages = [p.mispredicts for p in paths]
        assert damages == sorted(damages, reverse=True)

    def test_min_occurrences_filter(self, data_trace):
        paths = profile_difficult_paths(data_trace, n=4, min_occurrences=50)
        assert all(p.occurrences >= 50 for p in paths)

    def test_easy_program_yields_nothing(self):
        trace = run_program(assemble("""
            li r1, 0
            li r2, 3000
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """), max_instructions=12_000)
        assert profile_difficult_paths(trace, n=4) == []


class TestPrebuild:
    def test_routines_built_for_profiled_paths(self, data_trace):
        paths = profile_difficult_paths(data_trace, n=4)
        threads = prebuild_microthreads(data_trace, paths, small_config())
        assert threads
        built_keys = {t.key for t in threads}
        assert built_keys <= {p.key for p in paths}

    def test_static_image_available_immediately(self, data_trace):
        paths = profile_difficult_paths(data_trace, n=4)
        threads = prebuild_microthreads(data_trace, paths, small_config())
        assert all(t.available_cycle == 0 for t in threads)

    def test_image_prunes_at_the_configured_threshold(self):
        """The image is built on value predictors trained at the
        config's ``confidence_threshold``, so a lower threshold prunes
        more of each routine into predictor queries."""
        trace = benchmark_trace("gcc", 20_000)
        paths = profile_difficult_paths(trace, n=4)

        def pruned(threshold):
            threads = prebuild_microthreads(
                trace, paths, small_config(confidence_threshold=threshold))
            return sum(node.kind in ("vp", "ap")
                       for t in threads for node in t.nodes)

        assert pruned(1) > pruned(4)


class TestStaticEngine:
    def test_profile_guided_beats_baseline(self, data_trace):
        base = baseline_run(data_trace)
        result, engine = run_profile_guided(data_trace, small_config())
        assert engine.spawner.stats.spawned > 0
        assert result.ipc > base.ipc

    def test_no_ramp_beats_dynamic_on_short_traces(self, data_trace):
        """With no Path Cache warm-up or build latency, the static image
        covers the whole run — the compile-time advantage."""
        dynamic, _ = run_ssmt(data_trace, small_config())
        static, _ = run_profile_guided(data_trace, small_config())
        assert static.ipc >= dynamic.ipc * 0.98

    def test_max_routines_cap(self, data_trace):
        _, engine = run_profile_guided(data_trace, small_config(),
                                       max_routines=1)
        assert len(engine.microram) <= 1

    def test_violation_drops_routine(self):
        trace = run_program(assemble(STORE_INTERFERENCE),
                            max_instructions=40_000)
        result, engine = run_profile_guided(trace, small_config())
        # stores interfere -> some routine was dropped at least once, or
        # the profile avoided those paths entirely; either way it runs.
        assert result.instructions == len(trace)

    def test_violated_image_routine_dropped_not_rebuilt(self):
        """A violated routine leaves a fixed image for good: there is no
        builder to rebuild it and no Path Cache to re-promote it."""
        trace = run_program(assemble(SSMT_STORE_INTERFERENCE),
                            max_instructions=50_000)
        built = {}
        collect = SimpleNamespace(
            verify_built=lambda thread, prb: built.setdefault(thread.key,
                                                              thread))
        run_ssmt(trace, small_config(), verifier=collect)
        for thread in built.values():
            thread.available_cycle = 0
        engine = SSMTEngine(small_config(), trace.initial_memory,
                            image=built.values())
        OoOTimingModel().run(trace, BranchPredictorComplex(), engine)
        violations = engine.spawner.stats.memdep_violations
        assert violations > 0
        assert len(engine.microram) == len(built) - violations
        assert engine.builder.stats.rebuilds == 0
        assert engine.path_cache.stats.updates == 0

    def test_outcome_stash_stays_bounded(self, data_trace):
        """The static engine consumes on_control stashes even though it
        never trains a Path Cache (regression for a leak)."""
        _, engine = run_profile_guided(data_trace, small_config())
        assert len(engine._pending_mispredict) == 0

    def test_cross_input_profiling(self, data_trace):
        """Profile on one trace, run on another (same program)."""
        other = run_program(assemble(DATA_LOOP), max_instructions=20_000)
        result, engine = run_profile_guided(other, small_config(),
                                            profile_trace=data_trace)
        assert result.instructions == len(other)
        assert len(engine.microram) > 0


class TestThrottling:
    def test_throttle_disabled_by_default(self, data_trace):
        _, engine = run_ssmt(data_trace, small_config())
        assert engine.throttled_paths == 0

    def test_throttle_fires_on_unhelpful_paths(self, data_trace):
        """With an aggressive window, paths whose predictions merely agree
        with correct hardware predictions get demoted."""
        config = small_config(throttle_enabled=True, throttle_window=4,
                              throttle_useless_fraction=0.5)
        result, engine = run_ssmt(data_trace, config)
        assert result.instructions == len(data_trace)
        # DATA_LOOP's microthreads are genuinely useful, so with a sane
        # fraction nothing should be throttled...
        lenient = small_config(throttle_enabled=True, throttle_window=16,
                               throttle_useless_fraction=0.99)
        _, engine2 = run_ssmt(data_trace, lenient)
        assert engine2.throttled_paths <= engine.throttled_paths + 5

    def test_throttled_path_not_repromoted(self, data_trace):
        config = small_config(throttle_enabled=True, throttle_window=2,
                              throttle_useless_fraction=0.01)
        _, engine = run_ssmt(data_trace, config)
        # hair-trigger throttle: every consuming path is eventually barred
        if engine.throttled_paths:
            for key in engine._throttled:
                assert engine.microram.get(key) is None


class TestRebuildThreshold:
    def test_threshold_one_rebuilds_immediately(self):
        trace = run_program(assemble(STORE_INTERFERENCE),
                            max_instructions=40_000)
        _, engine = run_ssmt(trace, small_config(
            rebuild_violation_threshold=1))
        if engine.spawner.stats.memdep_violations:
            assert engine.builder.stats.rebuilds > 0

    def test_higher_threshold_rebuilds_less(self):
        trace = run_program(assemble(STORE_INTERFERENCE),
                            max_instructions=40_000)
        eager_result, eager = run_ssmt(trace, small_config(
            rebuild_violation_threshold=1))
        patient_result, patient = run_ssmt(trace, small_config(
            rebuild_violation_threshold=4))
        assert patient_result.ipc > 0
        if eager.builder.stats.rebuilds:
            assert (patient.builder.stats.rebuilds
                    <= eager.builder.stats.rebuilds)
