"""The timing model and its fused retire loop.

:class:`OoOTimingModel` (contract: :mod:`repro.uarch.timing`) has one
loop, :meth:`OoOTimingModel.run_span`.  It reads the predecoded columns
of :mod:`repro.kernel.columns` instead of ``rec.inst`` attributes and
inlines the engine's retire work (predictor training, PRB insertion,
path tracking), so no instruction pays for a hook call; the rare blocks
call the engine's ``_retire_*`` helpers.  Engine variants override
engine methods, never the loop: :class:`~repro.core.static.
StaticSSMTEngine` overrides two ``_retire_*`` helpers, and the loop
skips training and PRB insertion for the oracle
:class:`~repro.core.oracle.PotentialEngine`, which builds no
microthreads.

:meth:`OoOTimingModel.start` opens a run whose :class:`_RunState`
``run_span`` advances over any consecutive ranges: ``run`` is one span,
while the windowed timelines and the pipeline view use several.  The
per-record loop this replaced is frozen as
:class:`repro.perf.reference.ReferenceTimingModel`, and
``tests/test_kernel.py`` holds the two bit-identical (and a split run
identical to one ``run``).  A quiet engine
(no telemetry, sanitizer or event log) costs no hook calls at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.branch.unit import BranchOutcome, BranchPredictorComplex
from repro.core.oracle import PotentialEngine
from repro.core.prb import PRBEntry
from repro.core.ssmt import SSMTEngine
from repro.isa.instructions import Opcode
from repro.valuepred.stride import StrideEntry
from repro.kernel.columns import (
    HAS_DEST,
    HAS_EA,
    IS_COND,
    IS_CONTROL,
    IS_INDIRECT,
    IS_LOAD,
    IS_STORE,
    IS_TAKEN,
    IS_TERM,
    TraceColumns,
    predecode,
)
from repro.sim.trace import Trace
from repro.uarch.caches import CacheHierarchy
from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.timing import TimingResult

_M64 = (1 << 64) - 1
_OP_LD = 40   # Opcode.LD
_OP_ST = 41   # Opcode.ST
_OP_MUL = 11  # Opcode.MUL


class _RunState:
    """Mutable fetch/retire cursor state of one (possibly windowed) run.

    The fused loop loads these into locals on entry and stores them back
    on exit, which is what lets a run be split into spans over one
    persistent state.  ``timing`` holds the last timed instruction's
    ``(fetch, dispatch, issue, complete, retire)`` cycles.
    """

    __slots__ = ("fetch_cycle", "fetched_this_cycle", "taken_this_cycle",
                 "uops_this_cycle", "fetch_barrier", "retire_ring",
                 "last_retire", "retired_in_cycle", "last_store_complete",
                 "prev_was_taken", "result", "columns", "predictor",
                 "engine", "timing")

    def __init__(self, window: int, result: TimingResult,
                 columns: TraceColumns, predictor: BranchPredictorComplex,
                 engine: Optional[SSMTEngine]):
        self.fetch_cycle = 0
        self.fetched_this_cycle = 0
        self.taken_this_cycle = 0
        self.uops_this_cycle = 0
        self.fetch_barrier = 0
        self.retire_ring: List[int] = [0] * window
        self.last_retire = 0
        self.retired_in_cycle = 0
        self.last_store_complete: Dict[int, int] = {}
        self.prev_was_taken = False
        self.result = result
        self.columns = columns
        self.predictor = predictor
        self.engine = engine
        self.timing: Tuple[int, ...] = ()


class OoOTimingModel:
    """One-pass timing model; see module docstring."""

    def __init__(self, config: MachineConfig = TABLE3_BASELINE):
        self.config = config
        self.caches = CacheHierarchy(config)
        self._slot_used: Dict[int, int] = {}
        self.reg_ready: List[int] = [0] * 32
        self._frontend_debt = 0
        #: the in-progress result of the current run (live view for
        #: attached telemetry); the same object :meth:`run` returns
        self.result: Optional[TimingResult] = None
        #: the predictor of the current run (telemetry collector)
        self.predictor: Optional[BranchPredictorComplex] = None

    def add_frontend_debt(self, instructions: int) -> None:
        """Charge microthread instructions against the shared decode/rename
        bandwidth (SSMT microthreads are injected into the same 16-wide
        rename pipeline as the primary thread).  Microthreads may claim at
        most half the width per cycle, modelling the arbitration that lets
        them use spare slots preferentially."""
        self._frontend_debt += instructions

    # -- services shared with the engine --------------------------------------

    def alloc_issue_slot(self, earliest: int) -> int:
        """Claim one of the ``issue_width`` shared slots at or after
        ``earliest``; returns the cycle granted."""
        width = self.config.issue_width
        slots = self._slot_used
        t = earliest
        while slots.get(t, 0) >= width:
            t += 1
        slots[t] = slots.get(t, 0) + 1
        return t

    def op_latency(self, op: Opcode) -> int:
        if op == Opcode.MUL:
            return self.config.mul_latency
        return self.config.int_latency

    # -- runs --------------------------------------------------------------------

    def start(self, trace: Trace, predictor: BranchPredictorComplex,
              engine: Optional[SSMTEngine] = None) -> _RunState:
        """Open a run of ``trace``: a fresh live result and cursor state,
        which :meth:`run_span` then advances."""
        result = TimingResult(name=trace.name, cache=self.caches.stats)
        self.result = result
        self.predictor = predictor
        state = _RunState(self.config.window_size, result, predecode(trace),
                          predictor, engine)
        if engine is not None:
            engine.on_run_start(self, trace)
        return state

    def run(self, trace: Trace, predictor: BranchPredictorComplex,
            engine: Optional[SSMTEngine] = None) -> TimingResult:
        """Time the whole trace as one span."""
        state = self.start(trace, predictor, engine)
        n = state.columns.n
        self.run_span(state, 0, n)
        result = state.result
        result.instructions = n
        result.cycles = state.last_retire + 1
        if engine is not None:
            engine.on_run_end(result, self)
        return result

    def run_span(self, state: _RunState, lo: int, hi: int) -> None:
        """Run instructions ``[lo, hi)`` in full detail over ``state``.

        One fused pass: fetch bookkeeping, window dispatch, issue-slot
        allocation, control resolution and the engine's retire work,
        all against the predecoded columns.
        """
        cfg = self.config
        columns = state.columns
        (flags, pcs, ops, dests, src1s, src2s, nsrcs, imms, eas,
         results_col, next_pcs) = columns.lists()
        records = columns.records
        result = state.result
        predictor = state.predictor
        engine = state.engine

        # -- machine constants / shared services ---------------------------
        caches = self.caches
        load_latency = caches.load_latency
        cache_store = caches.store
        reg_ready = self.reg_ready
        slots = self._slot_used
        slots_get = slots.get
        issue_width = cfg.issue_width
        frontend = cfg.frontend_depth
        redirect = cfg.redirect_after_resolve
        window = cfg.window_size
        fetch_width = cfg.fetch_width
        half_width = fetch_width // 2
        taken_limit = cfg.fetch_taken_limit
        retire_width = cfg.retire_width
        store_latency = cfg.store_latency
        mul_latency = cfg.mul_latency
        int_latency = cfg.int_latency
        btb_bubble = cfg.btb_miss_bubble
        predictor_process = predictor.process
        resolve_control = self._resolve_control

        # -- engine bindings (None-safe; engine is never reassigned) -------
        if engine is not None:
            spawn_index = engine.microram._by_spawn_pc
            engine_on_fetch = engine.on_fetch
            lookup_prediction = engine.lookup_prediction
            on_outcome = engine.on_prediction_outcome
            # The oracle builds no microthreads: nothing reads the
            # predictor confidences or the PRB it would fill.
            trains = not isinstance(engine, PotentialEngine)
            trainer = engine.trainer
            # Stride-predictor tables, unpacked for the inlined
            # train/is_confident bodies below.
            vp = trainer.value_predictor
            vp_entries = vp._entries
            vp_get = vp_entries.get
            vp_threshold = vp.confidence_threshold
            vp_maxconf = vp.max_confidence
            vp_capacity = vp.capacity
            ap = trainer.address_predictor
            ap_entries = ap._entries
            ap_get = ap_entries.get
            ap_threshold = ap.confidence_threshold
            ap_maxconf = ap.max_confidence
            ap_capacity = ap.capacity
            # PRB internals for the inlined ``PostRetirementBuffer.insert``
            # body.  ``prb._next_pos`` is written back every insert so
            # the builder's mid-loop ``prb.get`` reads stay coherent.
            prb = engine.prb
            prb_ring = prb._ring
            prb_capacity = prb.capacity
            prb_reg_writer = prb._reg_writer
            prb_reg_get = prb_reg_writer.get
            prb_mem_writer = prb._mem_writer
            prb_mem_get = prb_mem_writer.get
            prb_next_pos = prb._next_pos
            prb_sweep_at = prb._sweep_at
            prb_sweep = prb._sweep_writers
            prb_entry_new = PRBEntry.__new__
            tracker = engine.tracker
            tracker_make_event = tracker._make_event
            tracker_append = tracker._append
            pending = engine._pending_mispredict
            pending_pop = pending.pop
            spawner = engine.spawner
            spawner_retire_past = spawner.retire_past
            retire_store_violation = engine._retire_store_violation
            retire_taken_control = engine._retire_taken_control
            retire_path_event = engine._retire_path_event
            reg_values = engine.reg_values
            memory = engine.memory
            quiet = engine._quiet
            sanitizer = engine.sanitizer
            telemetry_retire = engine._telemetry_retire
            control_hook = engine._telemetry_control
        else:
            spawn_index = ()
            lookup_prediction = None
            on_outcome = None
            quiet = True

        # -- cursor state ---------------------------------------------------
        fetch_cycle = state.fetch_cycle
        fetched_this_cycle = state.fetched_this_cycle
        taken_this_cycle = state.taken_this_cycle
        uops_this_cycle = state.uops_this_cycle
        fetch_barrier = state.fetch_barrier
        retire_ring = state.retire_ring
        last_retire = state.last_retire
        retired_in_cycle = state.retired_in_cycle
        last_store_complete = state.last_store_complete
        prev_was_taken = state.prev_was_taken
        # Frontend debt only changes inside ``on_fetch`` spawns (the
        # model's ``add_frontend_debt``), so it can live in a local that
        # is refreshed after each spawn-site call.
        frontend_debt = self._frontend_debt

        for idx in range(lo, hi):
            f = flags[idx]
            pc = pcs[idx]

            # ---- fetch ----------------------------------------------------
            if fetch_barrier > fetch_cycle:
                fetch_cycle = fetch_barrier
                fetched_this_cycle = 0
                taken_this_cycle = 0
                uops_this_cycle = 0
            if (fetched_this_cycle >= fetch_width
                    or taken_this_cycle >= taken_limit):
                fetch_cycle += 1
                fetched_this_cycle = 0
                taken_this_cycle = 0
                uops_this_cycle = 0
            while frontend_debt > 0:
                room = min(half_width - uops_this_cycle,
                           fetch_width - fetched_this_cycle)
                if room <= 0:
                    fetch_cycle += 1
                    fetched_this_cycle = 0
                    taken_this_cycle = 0
                    uops_this_cycle = 0
                    continue
                claim = min(frontend_debt, room)
                frontend_debt -= claim
                fetched_this_cycle += claim
                uops_this_cycle += claim
            fetched_this_cycle += 1
            if prev_was_taken:
                taken_this_cycle += 1

            if pc in spawn_index:
                # Inlined ``routines_at`` membership check (MicroRAM
                # deletes empty buckets, so presence == routines exist);
                # ``spawn_index`` is ``()`` without an engine.
                self._frontend_debt = frontend_debt
                prb._next_pos = prb_next_pos
                engine_on_fetch(idx, records[idx], fetch_cycle, self)
                frontend_debt = self._frontend_debt

            # ---- dispatch (window occupancy) ------------------------------
            dispatch = fetch_cycle + frontend
            slot_index = idx % window
            if idx >= window and retire_ring[slot_index] > dispatch:
                dispatch = retire_ring[slot_index]

            # ---- issue ----------------------------------------------------
            ready = dispatch
            nsrc = nsrcs[idx]
            if nsrc:
                t = reg_ready[src1s[idx]]
                if t > ready:
                    ready = t
                if nsrc > 1:
                    t = reg_ready[src2s[idx]]
                    if t > ready:
                        ready = t
            op = ops[idx]
            if op == _OP_LD:
                ea = eas[idx]
                t = last_store_complete.get(ea, 0)
                if t > ready:
                    ready = t
                else:
                    t = ready
                used = slots_get(t, 0)
                while used >= issue_width:
                    t += 1
                    used = slots_get(t, 0)
                slots[t] = used + 1
                issue = t
                complete = issue + load_latency(ea, issue)
            elif op == _OP_ST:
                ea = eas[idx]
                t = ready
                used = slots_get(t, 0)
                while used >= issue_width:
                    t += 1
                    used = slots_get(t, 0)
                slots[t] = used + 1
                issue = t
                cache_store(ea)
                complete = issue + store_latency
                last_store_complete[ea] = complete
            else:
                t = ready
                used = slots_get(t, 0)
                while used >= issue_width:
                    t += 1
                    used = slots_get(t, 0)
                slots[t] = used + 1
                issue = t
                complete = issue + (mul_latency if op == _OP_MUL
                                    else int_latency)

            if f & HAS_DEST:
                reg_ready[dests[idx]] = complete

            # ---- control resolution --------------------------------------
            prev_was_taken = False
            if f & IS_CONTROL:
                rec = records[idx]
                if f & IS_TAKEN:
                    prev_was_taken = True
                outcome = predictor_process(rec)
                hw_mis = outcome.mispredicted
                if f & IS_TERM:
                    if engine is not None:
                        # Inlined ``on_control``: stash the hardware
                        # outcome for the retire-side path event, and
                        # publish the PRB cursor before engine callbacks.
                        prb._next_pos = prb_next_pos
                        pending[idx] = hw_mis
                        if control_hook is not None:
                            control_hook(engine, idx, rec, outcome,
                                         fetch_cycle, complete)
                    effective_mis, recovery, bubble = resolve_control(
                        idx, rec, outcome, fetch_cycle, complete, result,
                        lookup_prediction, on_outcome)
                else:
                    effective_mis = hw_mis
                    recovery = complete
                    bubble = (outcome.btb_miss and outcome.predicted_taken
                              and not hw_mis)
                if f & IS_COND:
                    result.conditional_branches += 1
                elif f & IS_INDIRECT:
                    result.indirect_branches += 1
                if hw_mis:
                    result.hw_mispredicts += 1
                if effective_mis:
                    result.effective_mispredicts += 1
                    t = recovery + redirect
                    if t > fetch_barrier:
                        fetch_barrier = t
                elif bubble:
                    result.btb_bubbles += 1
                    t = fetch_cycle + btb_bubble
                    if t > fetch_barrier:
                        fetch_barrier = t

            # ---- retire ---------------------------------------------------
            if complete > last_retire:
                rc = complete
                retired_in_cycle = 1
            else:
                rc = last_retire
                retired_in_cycle += 1
                if retired_in_cycle > retire_width:
                    rc += 1
                    retired_in_cycle = 1
            last_retire = rc
            retire_ring[slot_index] = rc

            if engine is None:
                continue

            # ---- the engine's retire work ---------------------------------
            rec = records[idx]
            if f & IS_STORE:
                if f & HAS_EA and spawner.active:
                    prb._next_pos = prb_next_pos
                    retire_store_violation(idx, rec, rc)
            elif f & IS_CONTROL and f & IS_TAKEN and spawner.active:
                prb._next_pos = prb_next_pos
                retire_taken_control(idx, rec, rc)

            if trains:
                # Inlined PredictorTrainer.observe: the StridePredictor
                # ``is_confident``/``train`` bodies, sharing one table probe
                # (``tests/test_kernel.py`` pins the equivalence).
                entry = vp_get(pc)
                value_confident = (entry is not None
                                   and entry.confidence >= vp_threshold)
                if f & HAS_DEST:
                    vp.trains += 1
                    value = results_col[idx]
                    if entry is None:
                        if len(vp_entries) >= vp_capacity:
                            del vp_entries[next(iter(vp_entries))]
                        vp_entries[pc] = StrideEntry(value)
                    else:
                        stride = (value - entry.last_value) & _M64
                        if stride == entry.stride:
                            if entry.confidence < vp_maxconf:
                                entry.confidence += 1
                        else:
                            entry.stride = stride
                            entry.confidence = 0
                        entry.last_value = value
                address_confident = False
                is_load = f & IS_LOAD
                if is_load:
                    ea = eas[idx]
                    entry = ap_get(pc)
                    address_confident = (entry is not None
                                         and entry.confidence >= ap_threshold)
                    ap.trains += 1
                    base = (ea - imms[idx]) & _M64
                    if entry is None:
                        if len(ap_entries) >= ap_capacity:
                            del ap_entries[next(iter(ap_entries))]
                        ap_entries[pc] = StrideEntry(base)
                    else:
                        stride = (base - entry.last_value) & _M64
                        if stride == entry.stride:
                            if entry.confidence < ap_maxconf:
                                entry.confidence += 1
                        else:
                            entry.stride = stride
                            entry.confidence = 0
                        entry.last_value = base

                # Inlined PostRetirementBuffer.insert.  The PRB
                # cursor lives in ``prb_next_pos``; it is published to
                # ``prb._next_pos`` before every call that can re-enter the
                # engine (builder promotions read the PRB mid-loop) and at
                # span end, not per instruction.
                pos = prb_next_pos
                prb_next_pos = pos + 1
                floor = pos + 1 - prb_capacity
                if nsrc == 0:
                    src_producers = ()
                elif nsrc == 1:
                    p = prb_reg_get(src1s[idx])
                    src_producers = (
                        p if p is not None and p >= floor else None,)
                else:
                    p = prb_reg_get(src1s[idx])
                    q = prb_reg_get(src2s[idx])
                    src_producers = (
                        p if p is not None and p >= floor else None,
                        q if q is not None and q >= floor else None)
                mem_producer = None
                if is_load:
                    p = prb_mem_get(ea)
                    if p is not None and p >= floor:
                        mem_producer = p
                # ``PRBEntry.__new__`` + direct slot stores skips the
                # per-instruction ``__init__`` frame.
                entry = prb_entry_new(PRBEntry)
                entry.rec = rec
                entry.idx = idx
                entry.pos = pos
                entry.src_producers = src_producers
                entry.mem_producer = mem_producer
                entry.value_confident = value_confident
                entry.address_confident = address_confident
                prb_ring[pos % prb_capacity] = entry
                dest = dests[idx]
                if dest >= 0:
                    prb_reg_writer[dest] = pos
                if f & IS_STORE:
                    prb_mem_writer[eas[idx]] = pos
                if pos >= prb_sweep_at:
                    prb_sweep(floor)
                    prb_sweep_at = prb._sweep_at

            # Inlined PathTracker.observe + path-event handling.
            if f & IS_TERM:
                event = tracker_make_event(rec, idx)
                if f & IS_TAKEN:
                    tracker_append(pc, idx)
                mispredicted = pending_pop(idx, False)
                if not event.partial:
                    prb._next_pos = prb_next_pos
                    retire_path_event(event, mispredicted, rc)
            elif f & IS_CONTROL and f & IS_TAKEN:
                tracker_append(pc, idx)

            if spawner.active:
                spawner_retire_past(idx, rc)

            # Architectural state for microthread live-ins / memory view.
            if f & HAS_DEST:
                reg_values[dests[idx]] = results_col[idx]
            if f & IS_STORE and f & HAS_EA:
                memory[eas[idx]] = results_col[idx]

            if quiet:
                continue
            prb._next_pos = prb_next_pos
            if sanitizer is not None:
                sanitizer.on_retire(engine, idx, rec)
            if telemetry_retire is not None:
                telemetry_retire(engine, idx, rc)

        # -- store the cursor back -----------------------------------------
        state.fetch_cycle = fetch_cycle
        state.fetched_this_cycle = fetched_this_cycle
        state.taken_this_cycle = taken_this_cycle
        state.uops_this_cycle = uops_this_cycle
        state.fetch_barrier = fetch_barrier
        state.last_retire = last_retire
        state.retired_in_cycle = retired_in_cycle
        state.prev_was_taken = prev_was_taken
        if hi > lo:
            state.timing = (fetch_cycle, dispatch, issue, complete,
                            last_retire)
        self._frontend_debt = frontend_debt
        if engine is not None:
            prb._next_pos = prb_next_pos

    # -- control handling -------------------------------------------------------

    def _resolve_control(self, idx, rec, outcome: BranchOutcome, fetch_cycle,
                         resolve, result, lookup_prediction, on_outcome):
        """Combine the hardware prediction with any microthread prediction.

        Returns ``(effective_mispredict, recovery_cycle, btb_bubble)``.
        """
        inst = rec.inst
        hw_mis = outcome.mispredicted
        bubble = outcome.btb_miss and outcome.predicted_taken and not hw_mis

        predictable = inst.is_path_terminating
        entry = None
        if predictable and lookup_prediction is not None:
            entry = lookup_prediction(idx, rec, fetch_cycle)
        if entry is None:
            return hw_mis, resolve, bubble

        if inst.is_conditional_branch:
            ut_correct = entry.taken == rec.taken
            disagrees = entry.taken != outcome.predicted_taken
        else:  # indirect
            ut_correct = entry.target == rec.next_pc
            disagrees = entry.target != outcome.predicted_target

        arrival = entry.arrival_cycle
        if arrival <= fetch_cycle:
            # Early: the microthread prediction replaces the hardware one.
            kind = "early"
            effective_mis = not ut_correct
            recovery = resolve
            bubble = False
        elif arrival <= resolve:
            # Late: only matters if it disagrees with the prediction in use
            # (the machine assumes the microthread is more accurate).
            if not disagrees:
                kind = "late_agree"
                effective_mis = hw_mis
                recovery = resolve
            elif ut_correct:
                kind = "late_useful"
                effective_mis = True  # flush happens, but earlier
                recovery = arrival
                result.early_recoveries += 1
            else:
                kind = "late_harmful"
                effective_mis = True
                recovery = resolve
        else:
            kind = "useless"
            effective_mis = hw_mis
            recovery = resolve

        result.prediction_kinds[kind] = result.prediction_kinds.get(kind, 0) + 1
        if on_outcome is not None:
            on_outcome(idx, rec, kind, arrival <= fetch_cycle, ut_correct, hw_mis)
        return effective_mis, recovery, bubble
