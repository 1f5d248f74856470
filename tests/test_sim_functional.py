"""Tests for the architectural simulator: per-opcode semantics."""


from repro.isa.assembler import assemble
from repro.sim.functional import (
    DEFAULT_SP,
    FunctionalSimulator,
    run_program,
    to_signed,
    to_unsigned,
)


def run(source, max_instructions=10_000):
    return run_program(assemble(source), max_instructions=max_instructions)


def final_reg(source, reg):
    sim = FunctionalSimulator(assemble(source))
    sim.run()
    return sim.regs[reg]


class TestArithmetic:
    def test_add(self):
        assert final_reg("li r1, 5\nli r2, 7\nadd r3, r1, r2\nhalt", 3) == 12

    def test_sub_wraps_to_64_bits(self):
        assert final_reg("li r1, 0\nli r2, 1\nsub r3, r1, r2\nhalt", 3) == (1 << 64) - 1

    def test_mul(self):
        assert final_reg("li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt", 3) == 42

    def test_logic_ops(self):
        src = "li r1, 12\nli r2, 10\nand r3, r1, r2\nor r4, r1, r2\nxor r5, r1, r2\nhalt"
        sim = FunctionalSimulator(assemble(src))
        sim.run()
        assert sim.regs[3] == 8 and sim.regs[4] == 14 and sim.regs[5] == 6

    def test_shifts(self):
        assert final_reg("li r1, 3\nslli r2, r1, 4\nhalt", 2) == 48
        assert final_reg("li r1, 48\nsrli r2, r1, 4\nhalt", 2) == 3

    def test_slt_signed(self):
        assert final_reg("li r1, -1\nli r2, 1\nslt r3, r1, r2\nhalt", 3) == 1
        assert final_reg("li r1, 1\nli r2, -1\nslt r3, r1, r2\nhalt", 3) == 0

    def test_sltu_unsigned(self):
        # -1 as unsigned is the max value, so it is not < 1.
        assert final_reg("li r1, -1\nli r2, 1\nsltu r3, r1, r2\nhalt", 3) == 0

    def test_writes_to_r0_discarded(self):
        assert final_reg("li r0, 99\nhalt", 0) == 0

    def test_mov(self):
        assert final_reg("li r1, 33\nmov r2, r1\nhalt", 2) == 33


class TestMemory:
    def test_store_load_roundtrip(self):
        src = """
            li r1, 0x100
            li r2, 77
            st r2, 4(r1)
            ld r3, 4(r1)
            halt
        """
        assert final_reg(src, 3) == 77

    def test_load_from_data_segment(self):
        src = """
        .data arr 4 5 6 7 8
            li r1, &arr
            ld r2, 2(r1)
            halt
        """
        assert final_reg(src, 2) == 7

    def test_uninitialised_memory_reads_zero(self):
        assert final_reg("li r1, 0x5000\nld r2, 0(r1)\nhalt", 2) == 0

    def test_effective_address_recorded(self):
        trace = run(".data arr 2 1 2\nli r1, &arr\nld r2, 1(r1)\nhalt")
        load = next(r for r in trace if r.is_load)
        assert load.ea == load.src1_val + 1
        assert load.result == 2


class TestControlFlow:
    def test_taken_branch(self):
        trace = run("li r1, 1\nli r2, 1\nbeq r1, r2, end\nli r3, 9\nend:\nhalt")
        branch = next(r for r in trace if r.is_conditional_branch)
        assert branch.taken and branch.next_pc == 4

    def test_not_taken_branch(self):
        trace = run("li r1, 1\nli r2, 2\nbeq r1, r2, end\nli r3, 9\nend:\nhalt")
        branch = next(r for r in trace if r.is_conditional_branch)
        assert not branch.taken and branch.next_pc == 3

    def test_blt_bge_pair(self):
        assert final_reg(
            "li r1, 2\nli r2, 5\nli r3, 0\nblt r1, r2, yes\njmp end\n"
            "yes:\nli r3, 1\nend:\nhalt", 3) == 1
        assert final_reg(
            "li r1, 5\nli r2, 2\nli r3, 0\nbge r1, r2, yes\njmp end\n"
            "yes:\nli r3, 1\nend:\nhalt", 3) == 1

    def test_loop_executes_n_times(self):
        src = """
            li r1, 0
            li r2, 10
            li r3, 0
        loop:
            addi r3, r3, 2
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        assert final_reg(src, 3) == 20

    def test_call_writes_return_address(self):
        trace = run("call fn\nhalt\nfn:\nret")
        call = trace[0]
        assert call.taken and call.result == 1 and call.next_pc == 2

    def test_call_ret_roundtrip(self):
        src = """
            li r1, 1
            call fn
            addi r1, r1, 10
            halt
        fn:
            addi r1, r1, 100
            ret
        """
        assert final_reg(src, 1) == 111

    def test_jr_dispatch(self):
        src = """
            li r1, 4
            jr r1
            halt
            halt
            li r2, 5
            halt
        """
        assert final_reg(src, 2) == 5

    def test_jmp_records_taken(self):
        trace = run("jmp end\nend:\nhalt")
        assert trace[0].taken and trace[0].is_taken_control


class TestSimulatorMechanics:
    def test_halt_stops_and_flags(self):
        trace = run("li r1, 1\nhalt\nli r1, 2\nhalt")
        assert trace.halted
        assert len(trace) == 2

    def test_budget_stops_without_halt(self):
        trace = run("loop:\njmp loop", max_instructions=50)
        assert len(trace) == 50
        assert not trace.halted

    def test_seq_numbers_are_sequential(self):
        trace = run("li r1, 1\nli r2, 2\nhalt")
        assert [r.seq for r in trace] == [0, 1, 2]

    def test_resumed_run_continues_the_stream(self):
        src = "li r1, 0\nli r2, 9\nloop:\naddi r1, r1, 1\nblt r1, r2, loop\nhalt"
        sim = FunctionalSimulator(assemble(src))
        head, tail = sim.run(7), sim.run(15)
        whole = run(src, max_instructions=15)
        resumed = head.records + tail.records
        assert [r.seq for r in resumed] == list(range(15))
        assert ([(r.pc, r.src1_val, r.result, r.taken) for r in resumed]
                == [(r.pc, r.src1_val, r.result, r.taken) for r in whole])
        assert not tail.halted
        assert len(sim.run(100)) == 21 - 15 and sim.halted
        assert len(sim.run(200)) == 0

    def test_sp_initialised(self):
        sim = FunctionalSimulator(assemble("halt"))
        assert sim.regs[29] == DEFAULT_SP

    def test_initial_memory_attached_to_trace(self):
        trace = run(".data arr 2 3 4\nhalt")
        assert 3 in trace.initial_memory.values()

    def test_initial_memory_not_mutated_by_stores(self):
        src = ".data arr 1 5\nli r1, &arr\nli r2, 9\nst r2, 0(r1)\nhalt"
        program = assemble(src)
        trace = run_program(program)
        base = program[0].imm if hasattr(program[0], "imm") else None
        assert 5 in trace.initial_memory.values()
        assert 9 not in trace.initial_memory.values()


class TestHelpers:
    def test_to_signed(self):
        assert to_signed((1 << 64) - 1) == -1
        assert to_signed(5) == 5

    def test_to_unsigned(self):
        assert to_unsigned(-1) == (1 << 64) - 1
