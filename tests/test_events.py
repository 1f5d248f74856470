"""Tests for the SSMT event log."""

import pytest

from repro.branch.unit import BranchPredictorComplex
from repro.core.events import Event, EventLog
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.isa.assembler import assemble
from repro.sim.functional import run_program
from repro.kernel import OoOTimingModel

DATA_LOOP = """
.data arr 64 57 3 91 22 68 14 77 41 5 99 33 60 12 84 29 50 73 8 66 95 17 38 55 81 26 62 44 70 11 88 35 58 2 92 20 65 16 79 40 6 97 31 59 13 86 28 52 74 9 67 94 18 39 56 80 27 63 45 71 10 89 36 53 24
    li r1, 0
    li r2, 100000
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
    blt r6, r7, t
    addi r8, r8, 1
t:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


def run_with_log(log=None, n=30_000):
    trace = run_program(assemble(DATA_LOOP), max_instructions=n)
    log = log if log is not None else EventLog()
    engine = SSMTEngine(SSMTConfig(n=4, training_interval=8,
                                   build_latency=20),
                        initial_memory=trace.initial_memory,
                        event_log=log)
    OoOTimingModel().run(trace, BranchPredictorComplex(), engine)
    return log, engine


class TestEventLogUnit:
    def test_bounded_capacity(self):
        log = EventLog(capacity=5)
        for i in range(20):
            log.emit("spawn", i, 0, 99)
        assert len(log) == 5
        assert log.counts["spawn"] == 20  # counters see everything

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog().emit("bogus", 0, 0, 0)

    def test_kind_filter(self):
        log = EventLog(kinds=("promote",))
        log.emit("promote", 1, 0, 5)
        log.emit("spawn", 2, 0, 5)
        assert len(log) == 1
        assert log.counts["spawn"] == 1  # counted but not stored

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_unknown_filter_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog(kinds=("promote", "bogus"))

    def test_filter_drops_are_counted(self):
        log = EventLog(kinds=("promote",))
        log.emit("promote", 1, 0, 5)
        log.emit("spawn", 2, 0, 5)
        log.emit("spawn", 3, 0, 5)
        assert log.dropped_count("spawn") == 2
        assert log.dropped_count("promote") == 0
        assert log.dropped_count() == 2

    def test_ring_evictions_are_counted(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("spawn", i, 0, 9)
        assert len(log) == 3
        assert log.dropped_count("spawn") == 7

    def test_counts_equal_stored_plus_dropped(self):
        """The invariant: counts[kind] == stored(kind) + dropped[kind]."""
        log = EventLog(capacity=4, kinds=("spawn", "promote"))
        for i in range(6):
            log.emit("spawn", i, 0, 9)
        for i in range(3):
            log.emit("promote", i, 0, 9)
        log.emit("demote", 0, 0, 9)  # filtered out
        for kind in ("spawn", "promote", "demote"):
            assert log.counts[kind] \
                == len(log.of_kind(kind)) + log.dropped_count(kind)

    def test_event_str(self):
        text = str(Event("spawn", 10, 5, 99, "sep=7"))
        assert "spawn" in text and "branch@99" in text and "sep=7" in text


class TestEngineIntegration:
    def test_lifecycle_events_recorded(self):
        log, engine = run_with_log()
        summary = log.summary()
        assert summary.get("build", 0) > 0
        assert summary.get("promote", 0) > 0
        assert summary.get("spawn", 0) > 0
        assert summary.get("prediction", 0) > 0

    def test_counts_match_engine_stats(self):
        log, engine = run_with_log()
        assert log.counts["spawn"] == engine.spawner.stats.spawned
        assert log.counts["build"] == engine.builder.stats.built
        assert log.counts["active_abort"] \
            == engine.spawner.stats.aborted_active
        assert log.counts["pre_alloc_abort"] \
            == engine.spawner.stats.pre_allocation_aborts

    def test_for_branch_filters(self):
        log, engine = run_with_log()
        some_branch = next(iter(log.of_kind("promote"))).term_pc
        story = log.for_branch(some_branch)
        assert story
        assert all(e.term_pc == some_branch for e in story)

    def test_narrate_renders(self):
        log, _ = run_with_log()
        text = log.narrate(limit=10)
        assert len(text.splitlines()) <= 10
        assert "branch@" in text

    def test_invariant_holds_after_engine_run(self):
        """Even under a tight ring, counts == stored + dropped per kind."""
        log, _ = run_with_log(log=EventLog(capacity=64))
        for kind in log.counts:
            assert log.counts[kind] \
                == len(log.of_kind(kind)) + log.dropped_count(kind), kind

    def test_no_log_attached_is_silent(self):
        trace = run_program(assemble(DATA_LOOP), max_instructions=20_000)
        engine = SSMTEngine(SSMTConfig(n=4, training_interval=8),
                            initial_memory=trace.initial_memory)
        OoOTimingModel().run(trace, BranchPredictorComplex(),
                             engine)
        assert engine.event_log is None


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n=0),
        dict(difficulty_threshold=2.0),
        dict(n_contexts=0),
        dict(spawn_dispatch_latency=-1),
        dict(throttle_window=0),
        dict(throttle_useless_fraction=0.0),
        dict(rebuild_violation_threshold=0),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SSMTConfig(**kwargs)
