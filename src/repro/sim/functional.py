"""The architectural simulator.

Straight-line interpretation of the ISA with 64-bit wraparound integer
semantics.  Produces a :class:`~repro.sim.trace.Trace` of retired dynamic
instructions with source values, results, effective addresses and control
outcomes recorded — everything the back-end models need.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, REG_RA, REG_SP, REG_ZERO
from repro.sim.trace import DynamicInstruction, Trace

_MASK = (1 << 64) - 1
_SIGN = 1 << 63

#: Default stack pointer; grows downward, far below the data segment.
DEFAULT_SP = 0xF000


def to_signed(value: int) -> int:
    """Interpret a 64-bit pattern as a signed integer."""
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


def to_unsigned(value: int) -> int:
    """Mask a Python int to its 64-bit pattern."""
    return value & _MASK


class SimulationError(Exception):
    """Raised on illegal execution (bad PC, runaway store, micro-op, ...)."""


class FunctionalSimulator:
    """Executes a program, recording the retirement stream.

    Parameters
    ----------
    program:
        The linked program to run.
    max_instructions:
        Hard budget; execution stops (without error) when exhausted.
    """

    def __init__(self, program: Program, max_instructions: int = 200_000):
        self.program = program
        self.max_instructions = max_instructions
        self.regs: List[int] = [0] * NUM_REGS
        self.regs[REG_SP] = DEFAULT_SP
        self.memory: Dict[int, int] = dict(program.data.values)
        self.pc = program.entry
        self.halted = False
        #: instructions retired so far (the next record's ``seq``)
        self.retired = 0

    def run(self, max_instructions: Optional[int] = None) -> Trace:
        """Run on from where the last run stopped (``pc``, registers,
        memory and ``seq``) to ``HALT`` or until ``max_instructions``
        (default: the constructor's budget) have retired in total; return
        the trace of this call's instructions.  Its ``initial_memory`` is
        the program's data segment itself, shared and never written."""
        records: List[DynamicInstruction] = []
        append = records.append
        regs = self.regs
        memory = self.memory
        instructions = self.program.instructions
        n_static = len(instructions)
        pc = self.pc
        start = self.retired
        budget = (self.max_instructions if max_instructions is None
                  else max_instructions)
        if self.halted:
            budget = start

        for seq in range(start, budget):
            if not 0 <= pc < n_static:
                raise SimulationError(f"pc {pc} out of range at seq {seq}")
            inst = instructions[pc]
            op = inst.opcode
            rec = DynamicInstruction(seq, inst)
            next_pc = pc + 1

            if op == Opcode.ADD:
                a, b = regs[inst.rs1], regs[inst.rs2]
                r = (a + b) & _MASK
                rec.src1_val, rec.src2_val, rec.result = a, b, r
                if inst.rd != REG_ZERO:
                    regs[inst.rd] = r
            elif op == Opcode.ADDI:
                a = regs[inst.rs1]
                r = (a + inst.imm) & _MASK
                rec.src1_val, rec.result = a, r
                if inst.rd != REG_ZERO:
                    regs[inst.rd] = r
            elif op == Opcode.LD:
                a = regs[inst.rs1]
                ea = (a + inst.imm) & _MASK
                r = memory.get(ea, 0)
                rec.src1_val, rec.ea, rec.result = a, ea, r
                if inst.rd != REG_ZERO:
                    regs[inst.rd] = r
            elif op == Opcode.ST:
                a, v = regs[inst.rs1], regs[inst.rs2]
                ea = (a + inst.imm) & _MASK
                memory[ea] = v
                rec.src1_val, rec.src2_val, rec.ea, rec.result = a, v, ea, v
            elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
                a, b = regs[inst.rs1], regs[inst.rs2]
                if op == Opcode.BEQ:
                    taken = a == b
                elif op == Opcode.BNE:
                    taken = a != b
                elif op == Opcode.BLT:
                    taken = to_signed(a) < to_signed(b)
                else:
                    taken = to_signed(a) >= to_signed(b)
                rec.src1_val, rec.src2_val = a, b
                rec.taken = taken
                rec.result = 1 if taken else 0
                if taken:
                    next_pc = inst.target
            elif op == Opcode.LI:
                r = inst.imm & _MASK
                rec.result = r
                if inst.rd != REG_ZERO:
                    regs[inst.rd] = r
            elif op == Opcode.MOV:
                a = regs[inst.rs1]
                rec.src1_val, rec.result = a, a
                if inst.rd != REG_ZERO:
                    regs[inst.rd] = a
            elif op in (Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
                        Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.SLT,
                        Opcode.SLTU, Opcode.MUL):
                a, b = regs[inst.rs1], regs[inst.rs2]
                r = _alu(op, a, b)
                rec.src1_val, rec.src2_val, rec.result = a, b, r
                if inst.rd != REG_ZERO:
                    regs[inst.rd] = r
            elif op in (Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
                        Opcode.SRLI, Opcode.SLTI):
                a = regs[inst.rs1]
                r = _alu(_IMM_TO_REG[op], a, inst.imm & _MASK)
                rec.src1_val, rec.result = a, r
                if inst.rd != REG_ZERO:
                    regs[inst.rd] = r
            elif op == Opcode.JMP:
                rec.taken = True
                next_pc = inst.target
            elif op == Opcode.CALL:
                regs[REG_RA] = pc + 1
                rec.taken = True
                rec.result = pc + 1
                next_pc = inst.target
            elif op == Opcode.RET:
                a = regs[REG_RA]
                rec.src1_val = a
                rec.taken = True
                next_pc = a
            elif op == Opcode.JR:
                a = regs[inst.rs1]
                rec.src1_val = a
                rec.taken = True
                next_pc = a
            elif op == Opcode.NOP:
                pass
            elif op == Opcode.HALT:
                rec.next_pc = pc
                append(rec)
                self.halted = True
                break
            else:
                raise SimulationError(
                    f"illegal opcode {op.name} at pc {pc} (seq {seq})"
                )

            rec.next_pc = next_pc
            append(rec)
            pc = next_pc

        self.pc = pc
        self.retired = start + len(records)
        return Trace(records, name=self.program.name, halted=self.halted,
                     initial_memory=self.program.data.values)


_IMM_TO_REG = {
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SLLI: Opcode.SLL,
    Opcode.SRLI: Opcode.SRL,
    Opcode.SLTI: Opcode.SLT,
}


def _alu(op: Opcode, a: int, b: int) -> int:
    """64-bit ALU semantics shared by reg-reg and reg-imm forms."""
    if op == Opcode.ADD:
        return (a + b) & _MASK
    if op == Opcode.SUB:
        return (a - b) & _MASK
    if op == Opcode.AND:
        return a & b
    if op == Opcode.OR:
        return a | b
    if op == Opcode.XOR:
        return a ^ b
    if op == Opcode.SLL:
        return (a << (b & 63)) & _MASK
    if op == Opcode.SRL:
        return (a & _MASK) >> (b & 63)
    if op == Opcode.SRA:
        return (to_signed(a) >> (b & 63)) & _MASK
    if op == Opcode.SLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op == Opcode.SLTU:
        return 1 if (a & _MASK) < (b & _MASK) else 0
    if op == Opcode.MUL:
        return (a * b) & _MASK
    raise SimulationError(f"not an ALU op: {op.name}")


#: Public alias: evaluate one ALU operation with 64-bit semantics.
alu_op = _alu


def run_program(program: Program, max_instructions: int = 200_000) -> Trace:
    """Convenience wrapper: simulate ``program`` and return its trace."""
    return FunctionalSimulator(program, max_instructions=max_instructions).run()
