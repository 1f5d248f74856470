"""Additional timing-model coverage: retire width, taken-fetch limit,
BTB bubbles, issue-slot contention."""


from repro.branch.unit import BranchPredictorComplex
from repro.isa.assembler import assemble
from repro.sim.functional import run_program
from repro.uarch.config import TABLE3_BASELINE
from repro.kernel import OoOTimingModel
from repro.perf.reference import ReferenceTimingModel


def run_timing(source, config=TABLE3_BASELINE, n=20_000, listener=None):
    """Time ``source``; a hand-written ``listener`` drives the per-record
    reference loop, which shares the model's services with the fused
    loop."""
    trace = run_program(assemble(source), max_instructions=n)
    model = (OoOTimingModel if listener is None else ReferenceTimingModel)
    return model(config).run(trace, BranchPredictorComplex(), listener)


INDEPENDENT = "\n".join(f"li r{1 + (i % 8)}, {i}" for i in range(256)) + "\nhalt"


class TestRetireWidth:
    def test_retire_width_bounds_ipc(self):
        narrow_retire = TABLE3_BASELINE.scaled(retire_width=2)
        wide = run_timing(INDEPENDENT)
        narrow = run_timing(INDEPENDENT, config=narrow_retire)
        # 2-wide retirement caps IPC at 2
        assert narrow.ipc <= 2.01
        assert wide.ipc > narrow.ipc


class TestTakenLimit:
    #: a chain of unconditional jumps: every instruction redirects fetch
    JUMP_CHAIN = "\n".join(
        [f"j{i}:\n    jmp j{i + 1}" for i in range(63)] + ["j63:\n    jmp j0"]
    )

    def test_taken_limit_caps_fetch(self):
        limited = run_timing(self.JUMP_CHAIN, n=6000)
        relaxed = run_timing(
            self.JUMP_CHAIN, n=6000,
            config=TABLE3_BASELINE.scaled(fetch_taken_limit=16))
        # with 3 taken redirects/cycle, IPC cannot exceed 3 on pure jumps
        assert limited.ipc <= 3.01
        assert relaxed.ipc > limited.ipc


class TestBTBBubbles:
    def test_btb_bubbles_counted(self):
        # many distinct taken branches conflict in a tiny BTB
        source = """
            li r1, 0
            li r2, 300
        loop:
            jmp a
        a:  jmp b
        b:  jmp c
        c:  addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        result = run_timing(source)
        assert result.btb_bubbles >= 1  # cold BTB on first encounters


class TestIssueContention:
    def test_external_slot_pressure_slows_primary(self):
        class SlotHog:
            def on_fetch(self, idx, rec, cycle, engine):
                # steal most issue slots around the current cycle
                for _ in range(12):
                    engine.alloc_issue_slot(cycle)

        plain = run_timing(INDEPENDENT)
        hogged = run_timing(INDEPENDENT, listener=SlotHog())
        assert hogged.cycles > plain.cycles

    def test_alloc_issue_slot_fills_cycle(self):
        model = OoOTimingModel()
        granted = [model.alloc_issue_slot(5) for _ in range(20)]
        # 16 fit in cycle 5, the rest spill to cycle 6
        assert granted.count(5) == 16
        assert granted.count(6) == 4

    def test_op_latency(self):
        from repro.isa.instructions import Opcode

        model = OoOTimingModel()
        assert model.op_latency(Opcode.MUL) == TABLE3_BASELINE.mul_latency
        assert model.op_latency(Opcode.ADD) == TABLE3_BASELINE.int_latency


class TestResultAccessors:
    def test_mispredict_rate_zero_without_branches(self):
        result = run_timing("li r1, 1\nhalt")
        assert result.mispredict_rate() == 0.0

    def test_ipc_zero_guard(self):
        from repro.uarch.timing import TimingResult

        empty = TimingResult(name="x")
        assert empty.ipc == 0.0
