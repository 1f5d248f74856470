"""Tests for the out-of-order timing model."""


from repro.branch.unit import BranchPredictorComplex, oracle_complex
from repro.isa.assembler import assemble
from repro.sim.functional import run_program
from repro.uarch.config import TABLE3_BASELINE
from repro.kernel import OoOTimingModel
from repro.perf.reference import ReferenceTimingModel
from repro.uarch.timing import PredictionEntry


def trace_of(source, n=20_000):
    return run_program(assemble(source), max_instructions=n)


def run_timing(source, config=TABLE3_BASELINE, n=20_000, predictor=None,
               listener=None):
    """Time ``source``; a hand-written ``listener`` drives the per-record
    reference loop, which shares the model's services (control
    resolution, issue slots, frontend debt) with the fused loop."""
    trace = trace_of(source, n)
    model = (OoOTimingModel if listener is None else ReferenceTimingModel)
    predictor = predictor or BranchPredictorComplex()
    return model(config).run(trace, predictor, listener)


STRAIGHT_LINE = "\n".join(f"li r{1 + (i % 8)}, {i}" for i in range(64)) + "\nhalt"


class TestWidthLimits:
    def test_independent_code_approaches_fetch_width(self):
        result = run_timing(STRAIGHT_LINE)
        # 64 independent LIs on a 16-wide machine: a handful of cycles.
        assert result.ipc > 4.0

    def test_narrow_machine_is_slower(self):
        narrow = TABLE3_BASELINE.scaled(fetch_width=2, issue_width=2,
                                        retire_width=2)
        wide = run_timing(STRAIGHT_LINE)
        thin = run_timing(STRAIGHT_LINE, config=narrow)
        assert thin.cycles > wide.cycles * 2

    def test_serial_chain_bound_by_latency(self):
        chain = "li r1, 0\n" + "\n".join("addi r1, r1, 1" for _ in range(100)) + "\nhalt"
        result = run_timing(chain)
        # 100 dependent adds cannot beat 1 IPC on the chain.
        assert result.cycles >= 100


class TestWindow:
    def test_window_limits_overlap(self):
        # Two cold, long-latency loads separated by filler: a big window
        # overlaps their miss latencies; a 16-entry window serialises the
        # second load behind the first load's retirement.
        filler = "\n".join(f"li r{3 + (i % 4)}, {i}" for i in range(100))
        source = f"""
            li r1, 0x4000
            ld r2, 0(r1)
            {filler}
            li r5, 0x8000
            ld r6, 0(r5)
            halt
        """
        big = run_timing(source)
        small = run_timing(source,
                           config=TABLE3_BASELINE.scaled(window_size=16))
        assert small.cycles > big.cycles + 50


class TestMispredictionPenalty:
    LOOP_RANDOMISH = """
    .data arr 64 57 3 91 22 68 14 77 41 5 99 33 60 12 84 29 50 73 8 66 95 17 38 55 81 26 62 44 70 11 88 35 58 2 92 20 65 16 79 40 6 97 31 59 13 86 28 52 74 9 67 94 18 39 56 80 27 63 45 71 10 89 36 53 24
        li r1, 0
        li r2, 500
    loop:
        andi r3, r1, 63
        li r4, &arr
        add r5, r4, r3
        ld r6, 0(r5)
        li r7, 50
        blt r6, r7, skip
        addi r8, r8, 1
    skip:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """

    def test_oracle_faster_than_hardware(self):
        trace = trace_of(self.LOOP_RANDOMISH)
        base = OoOTimingModel().run(trace, BranchPredictorComplex())
        perfect = OoOTimingModel().run(trace, oracle_complex())
        assert base.hw_mispredicts > 20
        assert perfect.effective_mispredicts == 0
        assert perfect.cycles < base.cycles

    def test_larger_penalty_hurts_more(self):
        trace = trace_of(self.LOOP_RANDOMISH)
        short = OoOTimingModel(TABLE3_BASELINE.scaled(mispredict_penalty=10)).run(
            trace, BranchPredictorComplex())
        long = OoOTimingModel(TABLE3_BASELINE.scaled(mispredict_penalty=40)).run(
            trace, BranchPredictorComplex())
        assert long.cycles > short.cycles

    def test_mispredict_counts_recorded(self):
        result = run_timing(self.LOOP_RANDOMISH)
        assert result.effective_mispredicts == result.hw_mispredicts
        assert result.conditional_branches > 900
        assert 0.0 < result.mispredict_rate() < 0.5


class TestMemoryTiming:
    def test_cache_misses_slow_execution(self):
        # Walk far more data than L1 holds, dependent loads.
        source = """
            li r1, 0
            li r2, 3000
            li r3, 0x10000
        loop:
            add r4, r3, r1
            ld r5, 0(r4)
            addi r1, r1, 97
            blt r1, r2, loop
            halt
        """
        fast_mem = TABLE3_BASELINE.scaled(memory_latency=5)
        slow_mem = TABLE3_BASELINE.scaled(memory_latency=400)
        fast = run_timing(source, config=fast_mem)
        slow = run_timing(source, config=slow_mem)
        assert slow.cycles > fast.cycles

    def test_store_to_load_forwarding_orders(self):
        source = """
            li r1, 0x100
            li r2, 7
            st r2, 0(r1)
            ld r3, 0(r1)
            halt
        """
        result = run_timing(source)
        assert result.cycles > 0  # sanity: no crash, ordering handled


class TestListenerHooks:
    class Recorder:
        def __init__(self):
            self.fetches = []
            self.retires = []
            self.controls = []

        def on_fetch(self, idx, rec, cycle, engine):
            self.fetches.append(idx)

        def on_retire(self, idx, rec, cycle):
            self.retires.append((idx, cycle))

        def on_control(self, idx, rec, outcome, fetch, resolve):
            self.controls.append(idx)

    def test_hooks_called_for_every_instruction(self):
        recorder = self.Recorder()
        result = run_timing("li r1, 1\nli r2, 2\nhalt", listener=recorder)
        assert recorder.fetches == [0, 1, 2]
        assert len(recorder.retires) == 3

    def test_retire_cycles_monotonic(self):
        recorder = self.Recorder()
        run_timing(STRAIGHT_LINE, listener=recorder)
        cycles = [c for _, c in recorder.retires]
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))

    def test_control_hook_only_for_controls(self):
        recorder = self.Recorder()
        run_timing("li r1, 1\njmp next\nnext:\nhalt", listener=recorder)
        assert recorder.controls == [1]


class TestMicrothreadPredictionPaths:
    """Drive lookup_prediction directly to exercise early/late handling."""

    SOURCE = """
        li r1, 0
        li r2, 200
    loop:
        andi r3, r1, 1
        li r4, 1
        beq r3, r4, odd
        addi r5, r5, 1
    odd:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """

    class OracleListener:
        """Perfect early predictions for every conditional branch."""

        def __init__(self):
            self.kinds = []

        def lookup_prediction(self, idx, rec, fetch_cycle):
            if rec.is_conditional_branch:
                return PredictionEntry(rec.taken, rec.next_pc, 0)
            return None

        def on_prediction_outcome(self, idx, rec, kind, used, correct, hw_mis):
            self.kinds.append(kind)

    class WrongListener:
        """Early predictions that are always wrong."""

        def lookup_prediction(self, idx, rec, fetch_cycle):
            if rec.is_conditional_branch:
                return PredictionEntry(not rec.taken, rec.next_pc, 0)
            return None

    def test_early_correct_predictions_remove_mispredicts(self):
        listener = self.OracleListener()
        with_oracle = run_timing(self.SOURCE, listener=listener)
        plain = run_timing(self.SOURCE)
        assert with_oracle.effective_mispredicts == 0
        assert with_oracle.cycles <= plain.cycles
        assert set(listener.kinds) == {"early"}

    def test_early_wrong_predictions_introduce_mispredicts(self):
        wrong = run_timing(self.SOURCE, listener=self.WrongListener())
        plain = run_timing(self.SOURCE)
        assert wrong.effective_mispredicts > plain.effective_mispredicts
        assert wrong.cycles > plain.cycles

    def test_late_correct_prediction_shortens_recovery(self):
        class LateListener:
            def lookup_prediction(self, idx, rec, fetch_cycle):
                if rec.is_conditional_branch:
                    # arrives shortly after fetch: late but before resolve
                    return PredictionEntry(rec.taken, rec.next_pc,
                                           fetch_cycle + 1)
                return None

        late = run_timing(self.SOURCE, listener=LateListener())
        plain = run_timing(self.SOURCE)
        assert late.early_recoveries > 0
        assert late.cycles < plain.cycles

    def test_useless_predictions_change_nothing(self):
        class UselessListener:
            def lookup_prediction(self, idx, rec, fetch_cycle):
                if rec.is_conditional_branch:
                    return PredictionEntry(rec.taken, rec.next_pc,
                                           fetch_cycle + 10_000)
                return None

        useless = run_timing(self.SOURCE, listener=UselessListener())
        plain = run_timing(self.SOURCE)
        assert useless.effective_mispredicts == plain.effective_mispredicts
        assert useless.cycles == plain.cycles


class TestFrontendDebt:
    def test_debt_slows_fetch(self):
        trace = trace_of(STRAIGHT_LINE)

        class Debtor:
            def __init__(self, amount):
                self.amount = amount

            def on_fetch(self, idx, rec, cycle, engine):
                engine.add_frontend_debt(self.amount)

        plain = OoOTimingModel().run(trace, BranchPredictorComplex())
        loaded = ReferenceTimingModel().run(trace, BranchPredictorComplex(),
                                            Debtor(8))
        assert loaded.cycles > plain.cycles


class TestMachineConfig:
    def test_table3_values(self):
        cfg = TABLE3_BASELINE
        assert cfg.fetch_width == 16
        assert cfg.window_size == 512
        assert cfg.mispredict_penalty == 20
        assert cfg.fetch_taken_limit == 3

    def test_redirect_derivation(self):
        assert (TABLE3_BASELINE.redirect_after_resolve
                + TABLE3_BASELINE.frontend_depth) == 20

    def test_scaled_copy(self):
        narrow = TABLE3_BASELINE.scaled(fetch_width=4)
        assert narrow.fetch_width == 4
        assert TABLE3_BASELINE.fetch_width == 16
