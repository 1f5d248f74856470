"""Post-Retirement Buffer (paper §4.2.2).

Stores the last ``i`` retired instructions (512 in the paper) together
with dependence information "computed during instruction execution":
for each source register the buffer position of its producer, and for
loads the position of the most recent in-buffer store to the same
address.  The Microthread Builder scans it youngest-to-oldest.

Entries also carry the value/address-predictor confidence snapshot taken
just before insertion (paper §4.2.5: "we access the current confidence
and store it with each retired instruction in the PRB").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.trace import DynamicInstruction


class PRBEntry:
    """One retired instruction with dependence links."""

    __slots__ = ("rec", "idx", "pos", "src_producers", "mem_producer",
                 "value_confident", "address_confident")

    def __init__(self, rec: DynamicInstruction, idx: int, pos: int,
                 src_producers: Tuple[Optional[int], ...],
                 mem_producer: Optional[int],
                 value_confident: bool, address_confident: bool):
        self.rec = rec
        self.idx = idx          # trace index
        self.pos = pos          # monotonic PRB position
        self.src_producers = src_producers
        self.mem_producer = mem_producer
        self.value_confident = value_confident
        self.address_confident = address_confident


class PostRetirementBuffer:
    """Ring buffer of the last ``capacity`` retired instructions."""

    __slots__ = ("capacity", "_ring", "_next_pos", "_reg_writer",
                 "_mem_writer", "_sweep_at")

    def __init__(self, capacity: int = 512):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: List[Optional[PRBEntry]] = [None] * capacity
        self._next_pos = 0
        self._reg_writer: Dict[int, int] = {}
        self._mem_writer: Dict[int, int] = {}
        #: next position at which the writer maps are swept for dead
        #: producers (once per ring wrap; see :meth:`_sweep_writers`)
        self._sweep_at = capacity

    def insert(self, rec: DynamicInstruction, idx: int,
               value_confident: bool = False,
               address_confident: bool = False) -> PRBEntry:
        """Insert a retiring instruction; returns its entry.

        Runs once per retired instruction: producer positions are
        resolved with the liveness floor hoisted out of the loop instead
        of going through :meth:`_live_pos` per source.
        """
        pos = self._next_pos
        self._next_pos = pos + 1
        inst = rec.inst
        reg_writer = self._reg_writer
        floor = pos + 1 - self.capacity
        src_producers = tuple(
            p if p is not None and p >= floor else None
            for p in map(reg_writer.get, inst.srcs)
        )
        mem_producer = None
        if inst.is_load:
            p = self._mem_writer.get(rec.ea)
            mem_producer = p if p is not None and p >= floor else None
        entry = PRBEntry(rec, idx, pos, src_producers, mem_producer,
                         value_confident, address_confident)
        self._ring[pos % self.capacity] = entry
        dest = inst.dest
        if dest is not None:
            reg_writer[dest] = pos
        if inst.is_store:
            self._mem_writer[rec.ea] = pos
        if pos >= self._sweep_at:
            self._sweep_writers(floor)
        return entry

    def _sweep_writers(self, floor: int) -> None:
        """Prune producer positions that fell below the liveness floor.

        Reads already filter by the floor, so the maps' *contents* never
        affect builder output — but without pruning ``_mem_writer`` keeps
        one key per unique store address ever seen (and ``_reg_writer``
        up to one dead key per register), growing without bound on long
        traces.  Sweeping once per ring wrap keeps the maps bounded by
        the addresses touched in the last ``capacity`` instructions at
        amortized O(1) per insert.
        """
        self._sweep_at += self.capacity
        reg_writer = self._reg_writer
        for key in [k for k, p in reg_writer.items() if p < floor]:
            del reg_writer[key]
        mem_writer = self._mem_writer
        for key in [k for k, p in mem_writer.items() if p < floor]:
            del mem_writer[key]

    def _live_pos(self, pos: Optional[int]) -> Optional[int]:
        """A producer position, or None if it has fallen out of the buffer."""
        if pos is None or pos < self._next_pos - self.capacity:
            return None
        return pos

    def get(self, pos: int) -> Optional[PRBEntry]:
        """Entry at monotonic position ``pos`` if still resident."""
        if pos < 0 or pos >= self._next_pos or pos < self._next_pos - self.capacity:
            return None
        entry = self._ring[pos % self.capacity]
        return entry if entry is not None and entry.pos == pos else None

    @property
    def youngest_pos(self) -> int:
        """Position of the most recently inserted entry (-1 if empty)."""
        return self._next_pos - 1

    def youngest(self) -> Optional[PRBEntry]:
        return self.get(self.youngest_pos)

    def __len__(self) -> int:
        return min(self._next_pos, self.capacity)
