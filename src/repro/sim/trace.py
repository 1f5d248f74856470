"""Dynamic instruction records and the retirement trace container."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.isa.instructions import Instruction, Opcode


class DynamicInstruction:
    """One retired dynamic instruction.

    Carries everything downstream models need: the static instruction, the
    sequence number (``seq``, the paper's ``Seq_Num``), source values, the
    result, the effective address for memory operations, and the control
    outcome (``taken``/``next_pc``) for branches.
    """

    __slots__ = (
        "seq",
        "pc",
        "inst",
        "src1_val",
        "src2_val",
        "result",
        "ea",
        "taken",
        "next_pc",
    )

    def __init__(
        self,
        seq: int,
        inst: Instruction,
        src1_val: int = 0,
        src2_val: int = 0,
        result: int = 0,
        ea: Optional[int] = None,
        taken: bool = False,
        next_pc: int = 0,
    ):
        self.seq = seq
        self.pc = inst.pc
        self.inst = inst
        self.src1_val = src1_val
        self.src2_val = src2_val
        self.result = result
        self.ea = ea
        self.taken = taken
        self.next_pc = next_pc

    @property
    def opcode(self) -> Opcode:
        return self.inst.opcode

    @property
    def is_control(self) -> bool:
        return self.inst.is_control

    @property
    def is_conditional_branch(self) -> bool:
        return self.inst.is_conditional_branch

    @property
    def is_path_terminating(self) -> bool:
        return self.inst.is_path_terminating

    @property
    def is_taken_control(self) -> bool:
        """True if this instruction redirected the PC."""
        return self.inst.is_control and self.taken

    @property
    def is_load(self) -> bool:
        return self.inst.is_load

    @property
    def is_store(self) -> bool:
        return self.inst.is_store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.inst.is_control:
            extra = f" taken={self.taken} next={self.next_pc}"
        return f"<#{self.seq} pc={self.pc} {self.inst.disassemble()}{extra}>"


class Trace:
    """A retirement trace: an ordered list of :class:`DynamicInstruction`.

    ``halted`` records whether the program reached ``HALT`` before the
    instruction budget expired.
    """

    def __init__(self, records: List[DynamicInstruction], name: str = "trace",
                 halted: bool = False, initial_memory: Optional[dict] = None):
        #: kept as passed, not copied: the caller hands over its list
        self.records = records
        self.name = name
        self.halted = halted
        #: the data-segment image before the first instruction ran; the
        #: SSMT engine replays stores on top of this to give microthreads
        #: an architectural memory view.
        self.initial_memory: dict = initial_memory if initial_memory is not None else {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DynamicInstruction]:
        return iter(self.records)

    def __getitem__(self, index: int) -> DynamicInstruction:
        return self.records[index]

    def conditional_branches(self) -> Iterator[DynamicInstruction]:
        return (r for r in self.records if r.is_conditional_branch)

    def branch_count(self) -> int:
        """Dynamic count of path-terminating (conditional or indirect) branches."""
        return sum(1 for r in self.records if r.is_path_terminating)

    def control_count(self) -> int:
        return sum(1 for r in self.records if r.is_control)
