"""Tests for the Trace container and DynamicInstruction record."""


from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, Opcode
from repro.sim.functional import run_program
from repro.sim.trace import DynamicInstruction, Trace


def sample_trace():
    return run_program(assemble("""
        li r1, 0
        li r2, 5
    loop:
        addi r1, r1, 1
        blt r1, r2, loop
        call fn
        halt
    fn:
        ret
    """), max_instructions=100)


class TestDynamicInstruction:
    def test_properties_delegate_to_static(self):
        inst = Instruction(Opcode.BLT, rs1=1, rs2=2, target=0, pc=7)
        rec = DynamicInstruction(3, inst, taken=True, next_pc=0)
        assert rec.pc == 7
        assert rec.opcode == Opcode.BLT
        assert rec.is_conditional_branch
        assert rec.is_path_terminating
        assert rec.is_taken_control

    def test_not_taken_control_flag(self):
        inst = Instruction(Opcode.BEQ, rs1=1, rs2=2, target=0, pc=7)
        rec = DynamicInstruction(3, inst, taken=False, next_pc=8)
        assert rec.is_control and not rec.is_taken_control

    def test_memory_flags(self):
        load = DynamicInstruction(0, Instruction(Opcode.LD, rd=1, rs1=2))
        store = DynamicInstruction(0, Instruction(Opcode.ST, rs1=2, rs2=1))
        assert load.is_load and not load.is_store
        assert store.is_store and not store.is_load


class TestTraceContainer:
    def test_len_and_indexing(self):
        trace = sample_trace()
        assert len(trace) > 0
        assert trace[0].seq == 0
        assert trace[len(trace) - 1].seq == len(trace) - 1

    def test_iteration_order(self):
        trace = sample_trace()
        seqs = [r.seq for r in trace]
        assert seqs == list(range(len(trace)))

    def test_conditional_branches_generator(self):
        trace = sample_trace()
        conds = list(trace.conditional_branches())
        assert all(r.is_conditional_branch for r in conds)
        assert len(conds) == 5  # the loop backedge executes 5 times? 4+...
        # exact count: blt taken 4 times, final not taken -> 5 instances

    def test_branch_count_counts_terminating(self):
        trace = sample_trace()
        # conditional blt instances + ret (indirect) instances
        conds = sum(1 for r in trace if r.is_conditional_branch)
        rets = sum(1 for r in trace if r.inst.is_return)
        assert trace.branch_count() == conds + rets

    def test_control_count_superset(self):
        trace = sample_trace()
        assert trace.control_count() >= trace.branch_count()

    def test_halted_flag(self):
        trace = sample_trace()
        assert trace.halted

    def test_initial_memory_default_empty(self):
        trace = Trace([], name="empty")
        assert trace.initial_memory == {}
        assert len(trace) == 0

    def test_records_list_kept_not_copied(self):
        records = list(sample_trace())
        trace = Trace(records, name="kept")
        assert trace.records is records
