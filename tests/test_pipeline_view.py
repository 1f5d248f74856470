"""Tests for pipeline timing capture and rendering."""


from repro.isa.assembler import assemble
from repro.sim.functional import run_program
from repro.uarch.pipeline_view import (
    InstructionTiming,
    record_pipeline,
    render_pipeline,
    summarize_stalls,
)

SOURCE = """
    li r1, 0
    li r2, 50
loop:
    addi r3, r3, 1
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


def record(start=0, count=16, source=SOURCE):
    trace = run_program(assemble(source), max_instructions=2_000)
    return record_pipeline(trace, start, count)


class TestRecorder:
    def test_window_respected(self):
        records = record(start=10, count=5)
        assert [r.idx for r in records] == list(range(10, 15))

    def test_window_clipped_at_trace_end(self):
        trace = run_program(assemble(SOURCE), max_instructions=2_000)
        n = len(trace)
        assert [r.idx for r in record_pipeline(trace, n - 2, 5)] \
            == [n - 2, n - 1]
        assert record_pipeline(trace, n + 10, 5) == []

    def test_stage_monotonicity(self):
        for r in record(count=40):
            assert r.fetch <= r.dispatch <= r.issue <= r.complete <= r.retire

    def test_frontend_depth_respected(self):
        from repro.uarch.config import TABLE3_BASELINE

        for r in record(count=40):
            assert r.dispatch - r.fetch >= TABLE3_BASELINE.frontend_depth


class TestRendering:
    def test_diagram_contains_stage_letters(self):
        text = render_pipeline(record(count=8))
        for letter in "FDICR"[:3]:
            assert letter in text

    def test_rows_match_records(self):
        text = render_pipeline(record(count=8))
        assert len(text.splitlines()) == 9  # header + 8 rows

    def test_empty_records(self):
        assert "no instructions" in render_pipeline([])

    def test_clipping_notice(self):
        timings = [InstructionTiming(0, "nop", 0, 8, 9, 10, 500)]
        assert "clipped" in render_pipeline(timings, max_width=20)


class TestStallSummary:
    def test_gaps_nonnegative(self):
        summary = summarize_stalls(record(count=30))
        assert all(v >= 0 for v in summary.values())
        assert summary["fetch_to_dispatch"] >= 8  # frontend depth

    def test_empty_summary(self):
        summary = summarize_stalls([])
        assert set(summary) == {"fetch_to_dispatch", "dispatch_to_issue",
                                "issue_to_complete", "complete_to_retire"}
