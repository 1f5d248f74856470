"""Reference (pre-optimization) implementations kept as semantics oracles.

The hot-path rewrites in ``repro.branch.base``, ``repro.core.path`` and
``repro.kernel.batched`` must be *bit-identical* to what they replaced —
a branch predictor that drifts by one counter tick changes every
downstream number in the paper reproduction.  The originals live here
so tests can drive both implementations with the same inputs and
compare results exactly (``tests/test_perf.py``,
``tests/test_kernel.py``), and so the throughput benchmarks keep
measuring the per-record loop they always measured.
"""

from __future__ import annotations

from typing import Dict, List

from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTEngine
from repro.isa.instructions import Opcode
from repro.kernel.batched import OoOTimingModel
from repro.sim.trace import Trace
from repro.uarch.timing import TimingResult


class ReferenceSaturatingCounterTable:
    """The seed list-backed table of n-bit saturating counters.

    Byte-for-byte the ``SaturatingCounterTable`` implementation shipped
    with before it moved to a flat ``array`` backing store: counters
    start at the weak taken boundary (``2**(bits-1)``) and saturate at
    ``0`` and ``2**bits - 1``.
    """

    def __init__(self, entries: int, bits: int = 2):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if bits < 1:
            raise ValueError("counter width must be >= 1")
        self.entries = entries
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        self.mask = entries - 1
        self.table: List[int] = [self.threshold] * entries

    def predict(self, index: int) -> bool:
        return self.table[index & self.mask] >= self.threshold

    def counter(self, index: int) -> int:
        return self.table[index & self.mask]

    def update(self, index: int, taken: bool) -> None:
        index &= self.mask
        value = self.table[index]
        if taken:
            if value < self.max_value:
                self.table[index] = value + 1
        elif value > 0:
            self.table[index] = value - 1


class ReferenceTimingModel(OoOTimingModel):
    """The per-record timing loop the fused loop replaced.

    Walks ``trace.records`` and calls whichever ``on_*`` hooks and
    ``lookup_prediction`` its engine defines; an :class:`SSMTEngine`
    gets the per-record retire work of :func:`_engine_hooks`.  Only
    :meth:`run` is overridden, so the model services are shared.
    """

    def run(self, trace: Trace, predictor: BranchPredictorComplex,
            engine=None) -> TimingResult:
        listener = engine
        cfg = self.config
        result = TimingResult(name=trace.name, cache=self.caches.stats)
        self.result = result
        self.predictor = predictor
        reg_ready = self.reg_ready
        caches = self.caches
        alloc_issue_slot = self.alloc_issue_slot
        load_latency = caches.load_latency
        frontend = cfg.frontend_depth
        redirect = cfg.redirect_after_resolve
        window = cfg.window_size
        fetch_width = cfg.fetch_width
        taken_limit = cfg.fetch_taken_limit
        retire_width = cfg.retire_width

        on_run_start = getattr(listener, "on_run_start", None)
        on_run_end = getattr(listener, "on_run_end", None)
        on_fetch = getattr(listener, "on_fetch", None)
        lookup_prediction = getattr(listener, "lookup_prediction", None)
        on_outcome = getattr(listener, "on_prediction_outcome", None)
        if isinstance(listener, SSMTEngine):
            on_control, on_retire = _engine_hooks(listener)
        else:
            on_control = getattr(listener, "on_control", None)
            on_retire = getattr(listener, "on_retire", None)

        # fetch cursor state
        fetch_cycle = 0
        fetched_this_cycle = 0
        taken_this_cycle = 0
        uops_this_cycle = 0  # microthread instructions renamed this cycle
        fetch_barrier = 0  # earliest cycle the next fetch may occur

        # in-order retirement state
        retire_ring: List[int] = [0] * window
        last_retire = 0
        retired_in_cycle = 0

        last_store_complete: Dict[int, int] = {}
        prev_was_taken = False

        if on_run_start is not None:
            on_run_start(self, trace)

        for idx, rec in enumerate(trace.records):
            # ---- fetch ------------------------------------------------------
            if fetch_barrier > fetch_cycle:
                fetch_cycle = fetch_barrier
                fetched_this_cycle = 0
                taken_this_cycle = 0
                uops_this_cycle = 0
            if fetched_this_cycle >= fetch_width or taken_this_cycle >= taken_limit:
                fetch_cycle += 1
                fetched_this_cycle = 0
                taken_this_cycle = 0
                uops_this_cycle = 0
            while self._frontend_debt > 0:
                room = min(fetch_width // 2 - uops_this_cycle,
                           fetch_width - fetched_this_cycle)
                if room <= 0:
                    fetch_cycle += 1
                    fetched_this_cycle = 0
                    taken_this_cycle = 0
                    uops_this_cycle = 0
                    continue
                claim = min(self._frontend_debt, room)
                self._frontend_debt -= claim
                fetched_this_cycle += claim
                uops_this_cycle += claim
            fetched_this_cycle += 1
            if prev_was_taken:
                taken_this_cycle += 1

            if on_fetch is not None:
                on_fetch(idx, rec, fetch_cycle, self)

            # ---- dispatch (window occupancy) ---------------------------------
            dispatch = fetch_cycle + frontend
            slot_index = idx % window
            if idx >= window and retire_ring[slot_index] > dispatch:
                dispatch = retire_ring[slot_index]

            # ---- issue ---------------------------------------------------------
            inst = rec.inst
            ready = dispatch
            for src in inst.srcs:
                t = reg_ready[src]
                if t > ready:
                    ready = t
            op = inst.opcode
            if op == Opcode.LD:
                t = last_store_complete.get(rec.ea, 0)
                if t > ready:
                    ready = t
                issue = alloc_issue_slot(ready)
                complete = issue + load_latency(rec.ea, issue)
            elif op == Opcode.ST:
                issue = alloc_issue_slot(ready)
                caches.store(rec.ea)
                complete = issue + cfg.store_latency
                last_store_complete[rec.ea] = complete
            elif op == Opcode.MUL:
                issue = alloc_issue_slot(ready)
                complete = issue + cfg.mul_latency
            else:
                issue = alloc_issue_slot(ready)
                complete = issue + cfg.int_latency

            dest = inst.dest
            if dest is not None:
                reg_ready[dest] = complete

            # ---- control resolution -----------------------------------------
            prev_was_taken = False
            if inst.is_control:
                prev_was_taken = rec.taken
                outcome = predictor.process(rec)
                resolve = complete
                if on_control is not None:
                    on_control(idx, rec, outcome, fetch_cycle, resolve)
                effective_mis, recovery, bubble = self._resolve_control(
                    idx, rec, outcome, fetch_cycle, resolve, result,
                    lookup_prediction, on_outcome,
                )
                if inst.is_conditional_branch:
                    result.conditional_branches += 1
                elif inst.is_indirect:
                    result.indirect_branches += 1
                if outcome.mispredicted:
                    result.hw_mispredicts += 1
                if effective_mis:
                    result.effective_mispredicts += 1
                    fetch_barrier = max(fetch_barrier, recovery + redirect)
                elif bubble:
                    result.btb_bubbles += 1
                    fetch_barrier = max(fetch_barrier,
                                        fetch_cycle + cfg.btb_miss_bubble)

            # ---- retire --------------------------------------------------------
            rc = complete if complete > last_retire else last_retire
            if rc == last_retire:
                retired_in_cycle += 1
                if retired_in_cycle > retire_width:
                    rc += 1
                    retired_in_cycle = 1
            else:
                retired_in_cycle = 1
            last_retire = rc
            retire_ring[slot_index] = rc

            if on_retire is not None:
                on_retire(idx, rec, rc)

        result.instructions = len(trace.records)
        result.cycles = last_retire + 1
        if on_run_end is not None:
            on_run_end(result, self)
        return result


def _engine_hooks(self: SSMTEngine):
    """``SSMTEngine``'s per-record ``on_control`` and ``on_retire``
    (``self`` is the engine), which the fused loop inlines."""
    _trainer_observe = self.trainer.observe
    _prb_insert = self.prb.insert
    _tracker_observe = self.tracker.observe
    _spawner_retire_past = self.spawner.retire_past

    def on_control(idx, rec, outcome, fetch_cycle, resolve_cycle):
        if rec.inst.is_path_terminating:
            self._pending_mispredict[idx] = outcome.mispredicted
            control_hook = self._telemetry_control
            if control_hook is not None:
                control_hook(self, idx, rec, outcome, fetch_cycle,
                             resolve_cycle)

    def on_retire(idx, rec, retire_cycle):
        inst = rec.inst
        quiet = self._quiet  # all observability hooks detached

        # Memory-dependence violation: a store hits an address a live
        # microthread already read -> abort and rebuild (paper §4.2.4).
        is_store = inst.is_store
        if is_store and rec.ea is not None and self.spawner.active:
            self._retire_store_violation(idx, rec, retire_cycle)

        # Path_History deviation aborts (paper §4.3.2).  The SpawnManager
        # emits the ``active_abort`` event itself.
        if inst.is_control and rec.taken and self.spawner.active:
            self._retire_taken_control(idx, rec, retire_cycle)

        # Predictor training and PRB insertion (paper §4.2.2, §4.2.5).
        # This happens before promotion handling so that, when the builder
        # is invoked for this branch, the branch is the PRB's youngest
        # entry ("as it just retired").
        value_conf, addr_conf = _trainer_observe(rec)
        _prb_insert(rec, idx, value_conf, addr_conf)

        # Path Cache training and promotion/demotion (paper §4.1, §4.2.1).
        event = _tracker_observe(rec, idx)
        if event is not None:
            # Always consume the stashed outcome, including for partial
            # (warm-up) events, so the stash cannot accumulate entries.
            mispredicted = self._pending_mispredict.pop(idx, False)
            if not event.partial:
                self.on_path_event(event, mispredicted, retire_cycle)

        _spawner_retire_past(idx, retire_cycle)

        # Architectural state for microthread live-ins / memory view.
        dest = inst.dest
        if dest is not None:
            self.reg_values[dest] = rec.result
        if is_store and rec.ea is not None:
            self.memory[rec.ea] = rec.result

        if quiet:
            return  # fast path: no sanitizer / telemetry dispatch
        if self.sanitizer is not None:
            self.sanitizer.on_retire(self, idx, rec)
        telemetry_retire = self._telemetry_retire
        if telemetry_retire is not None:
            telemetry_retire(self, idx, retire_cycle)

    return on_control, on_retire
