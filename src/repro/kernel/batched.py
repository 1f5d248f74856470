"""The fused retire loop.

:class:`BatchedOoOTimingModel` is a drop-in
:class:`~repro.uarch.timing.OoOTimingModel` whose main loop consumes the
predecoded columns of :mod:`repro.kernel.columns` instead of walking
``rec.inst`` attributes, and which fuses the
:class:`~repro.core.ssmt.SSMTEngine` retire work (predictor training,
PRB insertion, path tracking, spawn checks) directly into the loop —
eliminating the per-instruction listener dispatch that dominates the
per-record loop's profile.

Bit-identity contract
---------------------
The fused loop performs *exactly* the per-record sequence of
operations per instruction, in the same order, against the same engine
structures; the rare conditional blocks (store violations, Path_History
aborts, path events) dispatch into the engine's shared ``_retire_*``
helpers, which are also what ``SSMTEngine.on_retire`` runs.
``tests/test_kernel.py`` pins the contract down with randomized
property tests and task-key payload identity on the gcc/50k reference.

The fusion only understands the stock engine surface, so
:meth:`BatchedOoOTimingModel.run` is the one place a loop is chosen:
the fused loop runs when the listener is ``None`` or exactly an
:class:`SSMTEngine`.  Every other listener — the potential and
profile-guided engines (which override ``on_retire``), the timeline
collector, the pipeline recorder — runs the inherited per-record loop,
so correctness never depends on the fast path recognising a caller.

Hook costs when unused stay zero: telemetry/sanitizer dispatch sits
behind the engine's precomputed ``_quiet`` flag exactly like the
per-record path, and a quiet run performs no hook calls at all.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.unit import BranchPredictorComplex
from repro.core.prb import PRBEntry
from repro.core.ssmt import SSMTEngine
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
from repro.uarch.timing import OoOTimingModel, TimingResult

_M64 = (1 << 64) - 1
_OP_LD = 40   # Opcode.LD
_OP_ST = 41   # Opcode.ST
_OP_MUL = 11  # Opcode.MUL


class _RunState:
    """Mutable fetch/retire cursor state of one (possibly windowed) run.

    The fused loop loads these into locals on entry and stores them back
    on exit, which is what lets sampled simulation
    (:mod:`repro.kernel.sampling`) alternate detailed spans and
    fast-forward gaps over one persistent state.
    """

    __slots__ = ("fetch_cycle", "fetched_this_cycle", "taken_this_cycle",
                 "uops_this_cycle", "fetch_barrier", "retire_ring",
                 "last_retire", "retired_in_cycle", "last_store_complete",
                 "prev_was_taken", "result")

    def __init__(self, window: int, result: TimingResult):
        self.fetch_cycle = 0
        self.fetched_this_cycle = 0
        self.taken_this_cycle = 0
        self.uops_this_cycle = 0
        self.fetch_barrier = 0
        self.retire_ring: List[int] = [0] * window
        self.last_retire = 0
        self.retired_in_cycle = 0
        self.last_store_complete = {}
        self.prev_was_taken = False
        self.result = result


class BatchedOoOTimingModel(OoOTimingModel):
    """Column-batched timing model; see module docstring."""

    def run(self, trace: Trace, predictor: BranchPredictorComplex,
            listener=None) -> TimingResult:
        if listener is not None and type(listener) is not SSMTEngine:
            # Exact type: a subclass may override ``on_retire``, which
            # the fused loop would silently skip.
            return super().run(trace, predictor, listener)
        columns = predecode(trace)
        result = TimingResult(name=trace.name, cache=self.caches.stats)
        self.result = result
        self.predictor = predictor
        state = _RunState(self.config.window_size, result)
        if listener is not None:
            listener.on_run_start(self, trace)
        self.run_span(columns, predictor, listener, state, 0, columns.n)
        result.instructions = columns.n
        result.cycles = state.last_retire + 1
        if listener is not None:
            listener.on_run_end(result, self)
        return result

    def run_span(self, columns: TraceColumns,
                 predictor: BranchPredictorComplex,
                 engine: Optional[SSMTEngine], state: _RunState,
                 lo: int, hi: int) -> None:
        """Run instructions ``[lo, hi)`` in full detail over ``state``.

        One fused pass: fetch bookkeeping, window dispatch, issue-slot
        allocation, control resolution and the engine's retire work,
        all against the predecoded columns.  Mirrors
        :meth:`OoOTimingModel.run` operation-for-operation.
        """
        cfg = self.config
        (flags, pcs, ops, dests, src1s, src2s, nsrcs, imms, eas,
         results_col, next_pcs) = columns.lists()
        records = columns.records
        result = state.result

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
            # PRB internals for the inlined ``insert_decoded`` body.
            # ``prb._next_pos`` is written back every insert so the
            # builder's mid-loop ``prb.get`` reads stay coherent.
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

            # ---- fused SSMTEngine.on_retire ------------------------------
            rec = records[idx]
            if f & IS_STORE:
                if f & HAS_EA and spawner.active:
                    prb._next_pos = prb_next_pos
                    retire_store_violation(idx, rec, rc)
            elif f & IS_CONTROL and f & IS_TAKEN and spawner.active:
                prb._next_pos = prb_next_pos
                retire_taken_control(idx, rec, rc)

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

            # Inlined PostRetirementBuffer.insert_decoded.  The PRB
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
        self._frontend_debt = frontend_debt
        if engine is not None:
            prb._next_pos = prb_next_pos
