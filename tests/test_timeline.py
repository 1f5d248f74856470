"""Tests for windowed time-series measurement."""

import pytest

from repro.analysis.timeline import ipc_timeline, sparkline, speedup_timeline
from repro.core.ssmt import SSMTConfig, SSMTEngine
from repro.isa.assembler import assemble
from repro.sim.functional import run_program

SOURCE = """
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
    li r7, 50
    blt r6, r7, t
    addi r8, r8, 1
t:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


@pytest.fixture(scope="module")
def trace():
    return run_program(assemble(SOURCE), max_instructions=60_000)


class TestIPCTimeline:
    def test_window_partitioning(self, trace):
        points = ipc_timeline(trace, window=10_000)
        assert len(points) == 6
        assert points[0].start_idx == 0
        assert points[0].end_idx == 9_999
        assert all(p.instructions == 10_000 for p in points)

    def test_windows_contiguous(self, trace):
        points = ipc_timeline(trace, window=10_000)
        for a, b in zip(points, points[1:]):
            assert b.start_idx == a.end_idx + 1

    def test_total_cycles_consistent(self, trace):
        from repro.analysis.experiments import baseline_run

        points = ipc_timeline(trace, window=10_000)
        full = baseline_run(trace)
        assert abs(sum(p.cycles for p in points) - full.cycles) < 50

    def test_window_mispredicts_sum_to_full_run(self, trace):
        from repro.analysis.experiments import baseline_run

        points = ipc_timeline(trace, window=10_000)
        assert len(trace) == 6 * 10_000
        full = baseline_run(trace)
        assert full.effective_mispredicts > 0
        assert sum(p.mispredicts for p in points) \
            == full.effective_mispredicts

    def test_ipc_positive(self, trace):
        for p in ipc_timeline(trace, window=20_000):
            assert 0.1 < p.ipc < 16.0


class TestSpeedupTimeline:
    def test_series_shape_and_benefit(self, trace):
        config = SSMTConfig(n=4, training_interval=8, build_latency=20)
        series = speedup_timeline(
            trace, lambda: SSMTEngine(config, trace.initial_memory),
            window=10_000)
        assert len(series) == 6
        assert [idx for idx, _ in series] == [9_999 + 10_000 * i
                                              for i in range(6)]
        # the mechanism helps overall and no window degenerates
        assert max(s for _, s in series) > 1.05
        assert all(s > 0.8 for _, s in series)

    def test_overhead_only_never_gains_beyond_prefetch(self, trace):
        """With predictions unused, a tight per-iteration-spawning loop
        pays heavy fetch/issue contention: every window is a slowdown
        (bounded below — the machine still makes forward progress)."""
        config = SSMTConfig(n=4, training_interval=8, build_latency=20,
                            use_predictions=False, pruning=False)
        series = speedup_timeline(
            trace, lambda: SSMTEngine(config, trace.initial_memory),
            window=20_000)
        assert all(0.4 < s <= 1.1 for _, s in series)

    def test_listener_factory_called_fresh(self, trace):
        created = []

        def factory():
            engine = SSMTEngine(SSMTConfig(n=4, training_interval=8),
                                trace.initial_memory)
            created.append(engine)
            return engine

        speedup_timeline(trace, factory, window=30_000)
        assert len(created) == 1


class TestSparkline:
    def test_length_matches_values(self):
        assert len(sparkline([1.0, 2.0, 3.0])) == 3

    def test_extremes_map_to_extreme_glyphs(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline([]) == ""

    def test_explicit_bounds_clamp(self):
        line = sparkline([0.0, 10.0], lo=2.0, hi=4.0)
        assert line[0] == "▁" and line[1] == "█"
