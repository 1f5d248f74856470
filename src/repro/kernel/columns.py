"""Struct-of-arrays predecode of a retirement trace.

The per-record timing loop reads ~10 attributes per dynamic instruction
(``rec.inst`` then its classification flags, dataflow sets, the record's
values).  :func:`predecode` walks the trace once and flattens everything
the hot loop needs into parallel columns — one flags bitmask plus flat
integer columns with ``-1`` sentinels for "none" — so the fused loop
(:mod:`repro.kernel.batched`) does indexed list reads instead of
attribute walks.

The columns are plain lists: CPython indexes lists faster than it
unboxes typed-array or numpy scalars, and the loop reads every column
per instruction.

Predecode output is memoized on the trace object, so repeated runs over
the same trace (sweep points, benchmark rounds) pay the predecode walk
once.  :class:`PackedColumns` keeps the trace store's columns packed
(:mod:`repro.workloads.suite`) and rebuilds traces from them.
"""

from __future__ import annotations

import array
from typing import List, Tuple

from repro.isa.program import Program
from repro.sim.trace import DynamicInstruction, Trace

# -- per-instruction classification bitmask ---------------------------------

IS_CONTROL = 1 << 0
IS_COND = 1 << 1          # conditional branch
IS_INDIRECT = 1 << 2
IS_TERM = 1 << 3          # path-terminating (conditional or indirect)
IS_LOAD = 1 << 4
IS_STORE = 1 << 5
IS_TAKEN = 1 << 6         # control transfer that redirected the PC
HAS_DEST = 1 << 7         # writes an architectural register
HAS_EA = 1 << 8           # carries an effective address

#: column order of :meth:`TraceColumns.lists`
COLUMN_NAMES = ("flags", "pc", "op", "dest", "src1", "src2", "nsrc",
                "imm", "ea", "result", "next_pc")


class TraceColumns:
    """Predecoded struct-of-arrays view of one :class:`Trace`.

    ``dest``/``src1``/``src2`` use ``-1`` for "none"; ``ea`` is ``0``
    with the ``HAS_EA`` flag clear when the record carries no effective
    address.  ``records`` keeps the original
    :class:`~repro.sim.trace.DynamicInstruction` objects for the rare
    paths (branch resolution, PRB entries, spawn checks) that still need
    them.
    """

    __slots__ = ("n", "records", "flags", "pc", "op", "dest", "src1",
                 "src2", "nsrc", "imm", "ea", "result", "next_pc")

    def __init__(self, trace: Trace):
        records = trace.records
        self.records = records
        self.n = len(records)
        n = self.n
        flags = [0] * n
        pc = [0] * n
        op = [0] * n
        dest = [-1] * n
        src1 = [-1] * n
        src2 = [-1] * n
        nsrc = [0] * n
        imm = [0] * n
        ea = [0] * n
        result = [0] * n
        next_pc = [0] * n
        for i, rec in enumerate(records):
            inst = rec.inst
            f = 0
            if inst.is_control:
                f |= IS_CONTROL
                if rec.taken:
                    f |= IS_TAKEN
            if inst.is_conditional_branch:
                f |= IS_COND
            if inst.is_indirect:
                f |= IS_INDIRECT
            if inst.is_path_terminating:
                f |= IS_TERM
            if inst.is_load:
                f |= IS_LOAD
            if inst.is_store:
                f |= IS_STORE
            d = inst.dest
            if d is not None:
                f |= HAS_DEST
                dest[i] = d
            srcs = inst.srcs
            k = len(srcs)
            nsrc[i] = k
            if k:
                src1[i] = srcs[0]
                if k > 1:
                    src2[i] = srcs[1]
            if rec.ea is not None:
                f |= HAS_EA
                ea[i] = rec.ea
            flags[i] = f
            pc[i] = rec.pc
            op[i] = int(inst.opcode)
            imm[i] = inst.imm
            result[i] = rec.result
            next_pc[i] = rec.next_pc
        self.flags = flags
        self.pc = pc
        self.op = op
        self.dest = dest
        self.src1 = src1
        self.src2 = src2
        self.nsrc = nsrc
        self.imm = imm
        self.ea = ea
        self.result = result
        self.next_pc = next_pc

    def lists(self) -> Tuple[List[int], ...]:
        """Every column, in :data:`COLUMN_NAMES` order (the simulation
        loop's working set)."""
        return tuple(getattr(self, name) for name in COLUMN_NAMES)


class PackedColumns:
    """The columns of a growing trace, packed in bytes.

    One ``bytearray`` per :data:`COLUMN_NAMES` column, plus ``src1_val``
    and ``src2_val``, the record fields predecode drops.  Unlike lists
    (or ``array.array`` on CPython 3.10+), bytearrays are not GC
    containers, so packed columns add nothing to a full collection.
    """

    #: ``array`` typecode per column; unsigned for 64-bit patterns
    TYPECODES = "qqqqqqqqQQQQQ"

    __slots__ = ("columns", "n")

    def __init__(self) -> None:
        self.columns = tuple(bytearray() for _ in self.TYPECODES)
        self.n = 0

    def append(self, columns: TraceColumns) -> None:
        """Pack the predecoded chunk ``columns`` onto the end."""
        records = columns.records
        chunk = columns.lists() + ([rec.src1_val for rec in records],
                                   [rec.src2_val for rec in records])
        for packed, code, values in zip(self.columns, self.TYPECODES, chunk):
            packed += array.array(code, values)  # in place
        self.n += columns.n

    def trace(self, n: int, program: Program, halted: bool) -> Trace:
        """The first ``n`` (at most :attr:`n`) instructions of
        ``program``'s trace, records rebuilt by inverting predecode and
        the predecode memo filled."""
        lists = [array.array(code, packed[:8 * n]).tolist()
                 for packed, code in zip(self.columns, self.TYPECODES)]
        flags, pc, ea, result, next_pc = (lists[0], lists[1], lists[8],
                                          lists[9], lists[10])
        instructions = program.instructions
        trace = Trace([
            DynamicInstruction(seq, instructions[p], a, b, r,
                               e if f & HAS_EA else None, bool(f & IS_TAKEN),
                               t)
            for seq, (f, p, a, b, r, e, t) in enumerate(
                zip(flags, pc, lists[11], lists[12], result, ea, next_pc))
        ], name=program.name, halted=halted,
            initial_memory=program.data.values)
        columns = TraceColumns.__new__(TraceColumns)
        columns.records = trace.records
        columns.n = n
        for name, column in zip(COLUMN_NAMES, lists):
            setattr(columns, name, column)
        trace._kernel_columns = columns
        return trace


def predecode(trace: Trace) -> TraceColumns:
    """Predecode ``trace`` (memoized on the trace object)."""
    columns = getattr(trace, "_kernel_columns", None)
    if columns is None:
        columns = TraceColumns(trace)
        trace._kernel_columns = columns
    return columns
