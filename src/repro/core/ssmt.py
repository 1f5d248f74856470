"""The full SSMT difficult-path branch prediction engine (paper §4).

:class:`SSMTEngine` is the engine the timing loop drives (the hooks are
listed in :mod:`repro.uarch.timing`) and wires together every structure
the paper describes:

* at **fetch** — spawn checks against the MicroRAM, pre-allocation path
  filtering, microcontext allocation, microthread functional execution
  and timing (consuming shared issue slots), and ``Store_PCache`` writes
  into the Prediction Cache;
* at **prediction** — ``(Path_Id, Seq_Num)`` Prediction Cache lookups
  feeding early predictions or late early-recoveries (handled by the
  timing engine);
* at **retire** — Path Cache training and promotion/demotion, the
  Microthread Builder, value/address predictor training, PRB insertion,
  the ``Path_History`` abort mechanism and memory-dependence violation
  rebuilds.

``use_predictions=False`` yields the paper's "overhead only"
configuration (Figure 7's third bar): microthreads spawn, execute and
consume resources (including their cache-warming side-effects) but their
predictions are never consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.branch.unit import BranchPredictorComplex
from repro.core.builder import BuilderConfig, MicrothreadBuilder
from repro.core.events import EventLog
from repro.core.microram import MicroRAM
from repro.core.microthread import Microthread
from repro.core.path import (
    DEFAULT_PATH_ID_BITS,
    PathEvent,
    PathKey,
    PathTracker,
)
from repro.core.path_cache import PathCache, PathCacheConfig
from repro.core.prb import PostRetirementBuffer
from repro.core.prediction_cache import (
    PredictionCache,
    PredictionCacheEntry,
)
from repro.core.spawn import ActiveMicrothread, SpawnManager
from repro.sim.trace import DynamicInstruction, Trace
from repro.uarch.config import MachineConfig, TABLE3_BASELINE
from repro.uarch.timing import PredictionEntry, TimingResult
from repro.valuepred import AddressPredictor, PredictorTrainer, StridePredictor

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.kernel.batched import OoOTimingModel
    from repro.telemetry.session import TelemetrySession
    from repro.verify.sanitizer import SimSanitizer
    from repro.verify.static import BuildVerifier


@dataclass
class SSMTConfig:
    """All knobs of the mechanism, with the paper's defaults."""

    n: int = 10                          # path length (Figure 7 uses 10)
    difficulty_threshold: float = 0.10   # T
    path_id_bits: int = DEFAULT_PATH_ID_BITS
    path_cache_entries: int = 8192
    path_cache_assoc: int = 8
    training_interval: int = 32
    allocate_on_mispredict_only: bool = True
    difficulty_aware_lru: bool = True
    prb_capacity: int = 512
    mcb_capacity: int = 64
    build_latency: int = 100
    builder_ports: int = 1
    pruning: bool = True
    move_elimination: bool = True
    constant_propagation: bool = True
    microram_entries: int = 8192
    prediction_cache_entries: int = 128
    n_contexts: int = 32
    use_predictions: bool = True
    abort_enabled: bool = True
    spawn_dispatch_latency: int = 3
    vp_latency: int = 2
    confidence_threshold: int = 4
    #: Usefulness-feedback throttling (the paper's §5.3 future work:
    #: "feedback mechanisms to throttle microthread usage").  When
    #: enabled, a promoted path whose consumed predictions are
    #: persistently unhelpful (late_harmful or useless) is demoted.
    throttle_enabled: bool = False
    throttle_window: int = 16
    #: demote when at least this fraction of a window's consumed
    #: predictions did not help (i.e. did not correct a hardware
    #: mispredict).  Lower values throttle harder: they contain overhead
    #: on well-predicted code sooner but sacrifice paths whose rarer
    #: corrections still carry wins.  0.85 balances the two on both the
    #: suite and the kernel workloads.
    throttle_useless_fraction: float = 0.85
    #: Rebuild-on-violation policy (paper §4.2.4).  1 reproduces the
    #: paper's simple immediate rebuild; higher values implement the
    #: "more advanced rebuilding approach [that corrects] only
    #: speculations that cause repeated violations".
    rebuild_violation_threshold: int = 1
    #: Ablation of the paper's core idea (§3.2.1): classify difficulty
    #: per static *branch* instead of per path.  One routine per branch
    #: (instead of per path), predictions keyed by branch identity alone,
    #: spawning on every reaching path — the "previous studies" strawman
    #: the paper's difficult-path classification improves on.
    classify_by_branch: bool = False

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("path length n must be positive")
        if not 0.0 <= self.difficulty_threshold <= 1.0:
            raise ValueError("difficulty threshold must be in [0, 1]")
        if self.n_contexts <= 0:
            raise ValueError("need at least one microcontext")
        if self.spawn_dispatch_latency < 0 or self.vp_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.throttle_window <= 0:
            raise ValueError("throttle window must be positive")
        if not 0.0 < self.throttle_useless_fraction <= 1.0:
            raise ValueError("throttle fraction must be in (0, 1]")
        if self.rebuild_violation_threshold <= 0:
            raise ValueError("rebuild threshold must be positive")

    def path_cache_config(self) -> PathCacheConfig:
        return PathCacheConfig(
            entries=self.path_cache_entries,
            assoc=self.path_cache_assoc,
            training_interval=self.training_interval,
            difficulty_threshold=self.difficulty_threshold,
            allocate_on_mispredict_only=self.allocate_on_mispredict_only,
            difficulty_aware_lru=self.difficulty_aware_lru,
        )

    def builder_config(self) -> BuilderConfig:
        return BuilderConfig(
            mcb_capacity=self.mcb_capacity,
            build_latency=self.build_latency,
            pruning=self.pruning,
            move_elimination=self.move_elimination,
            constant_propagation=self.constant_propagation,
            ports=self.builder_ports,
        )


class SSMTEngine:
    """The complete mechanism; see module docstring."""

    def __init__(self, config: Optional[SSMTConfig] = None,
                 initial_memory: Optional[Dict[int, int]] = None,
                 event_log: Optional[EventLog] = None,
                 verifier: Optional["BuildVerifier"] = None,
                 sanitizer: Optional["SimSanitizer"] = None,
                 telemetry: Optional["TelemetrySession"] = None):
        self.config = config or SSMTConfig()
        self.event_log = event_log
        #: optional static verifier, run over every successfully built
        #: routine while its extraction window is still PRB-resident
        self.verifier = verifier
        #: optional runtime invariant sanitizer ("simsan"); ``None``
        #: keeps the hooks at a single identity test per site
        self.sanitizer = sanitizer
        #: optional telemetry session (registry + interval sampler +
        #: lifecycle tracer); same opt-in cost model as the sanitizer
        self.telemetry = telemetry
        cfg = self.config
        self.tracker = PathTracker(cfg.n, cfg.path_id_bits)
        self.trainer = PredictorTrainer(
            StridePredictor(confidence_threshold=cfg.confidence_threshold),
            AddressPredictor(confidence_threshold=cfg.confidence_threshold),
        )
        self.prb = PostRetirementBuffer(cfg.prb_capacity)
        self.path_cache = PathCache(cfg.path_cache_config())
        self.builder = MicrothreadBuilder(cfg.builder_config())
        self.microram = MicroRAM(cfg.microram_entries)
        self.prediction_cache = PredictionCache(cfg.prediction_cache_entries)
        tracer = telemetry.tracer if telemetry is not None else None
        self.spawner = SpawnManager(cfg.n_contexts, cfg.abort_enabled,
                                    event_log=event_log, tracer=tracer)
        self._timing_model: Optional[OoOTimingModel] = None
        self.reg_values = [0] * 32
        #: the data segment, shared and never written; ``memory`` holds
        #: only the retired stores and overlays it
        self.initial_memory: Dict[int, int] = initial_memory or {}
        self.memory: Dict[int, int] = {}
        self._pending_mispredict: Dict[int, bool] = {}
        self.prediction_kind_counts: Dict[str, int] = {}
        self.correct_microthread_predictions = 0
        self.incorrect_microthread_predictions = 0
        # throttling feedback state: per-path consumed-prediction tallies
        self._throttle_tallies: Dict[PathKey, List[int]] = {}
        self._throttled: Set[PathKey] = set()
        self.throttled_paths = 0
        # repeated-violation rebuild policy state
        self._violation_counts: Dict[PathKey, int] = {}
        # bound once: ``on_fetch`` runs at every spawn-point fetch
        self._routines_at = self.microram.routines_at
        #: all observability hooks detached — the telemetry-off fast
        #: path through the retire loop skips their dispatch entirely
        self._quiet = (event_log is None and sanitizer is None
                       and telemetry is None)
        #: per-retire telemetry callable, bound once (see
        #: ``TelemetrySession.retire_hook`` for why the session's
        #: pass-through ``on_retire`` is not on the retire loop)
        self._telemetry_retire = (telemetry.retire_hook
                                  if telemetry is not None else None)
        #: per-terminating-branch observability callable, bound once
        #: (``None`` for plain telemetry sessions; see
        #: ``TelemetrySession.control_hook``)
        self._telemetry_control = (telemetry.control_hook
                                   if telemetry is not None else None)
        if telemetry is not None:
            telemetry.attach(self)

    # -- memory / predictor closures for microthread execution ----------------

    def _memory_read(self, ea: int) -> int:
        value = self.memory.get(ea)
        return self.initial_memory.get(ea, 0) if value is None else value

    def _value_predict(self, pc: int, ahead: int) -> Optional[int]:
        return self.trainer.value_predictor.predict(pc, ahead)

    def _address_predict(self, pc: int, ahead: int) -> Optional[int]:
        return self.trainer.address_predictor.predict(pc, ahead)

    # -- hooks the timing loop calls ---------------------------------------------

    def on_fetch(self, idx: int, rec: DynamicInstruction, fetch_cycle: int,
                 engine: OoOTimingModel) -> None:
        routines = self._routines_at(rec.pc)
        if not routines:
            return
        recent = self.tracker.current_branches()
        log = self.event_log
        for thread in list(routines):
            if thread.available_cycle > fetch_cycle:
                continue
            # Spawn rejections (pre-allocation aborts, context exhaustion)
            # are emitted by the SpawnManager itself, so no outcome can
            # bypass the event log.
            instance = self.spawner.attempt_spawn(thread, idx, fetch_cycle,
                                                  recent)
            if instance is not None:
                self.microram.touch(thread.key)
                self._run_microthread(instance, idx, fetch_cycle, engine)
                if log is not None:
                    log.emit("spawn", idx, fetch_cycle, thread.term_pc,
                             f"sep={thread.separation}")

    def lookup_prediction(self, idx: int, rec: DynamicInstruction,
                          fetch_cycle: int) -> Optional[PredictionEntry]:
        if not self.config.use_predictions:
            return None
        if self.config.classify_by_branch:
            lookup_id = rec.pc & ((1 << self.config.path_id_bits) - 1)
        else:
            lookup_id = self.tracker.current_path_id()
        entry = self.prediction_cache.lookup(lookup_id, idx)
        if entry is None:
            return None
        if self.telemetry is not None:
            self.telemetry.note_lookup(idx, entry.writer, fetch_cycle)
        return PredictionEntry(entry.taken, entry.target, entry.arrival_cycle)

    def on_prediction_outcome(self, idx: int, rec: DynamicInstruction,
                              kind: str, used: bool, correct: bool,
                              hw_mispredict: bool) -> None:
        self.prediction_kind_counts[kind] = \
            self.prediction_kind_counts.get(kind, 0) + 1
        if kind != "useless":
            if correct:
                self.correct_microthread_predictions += 1
            else:
                self.incorrect_microthread_predictions += 1
        if self.event_log is not None:
            self.event_log.emit(
                "prediction", idx, 0, rec.pc,
                f"{kind} correct={correct} hw_mis={hw_mispredict}")
        if self.telemetry is not None:
            self.telemetry.on_outcome(idx, rec, kind, correct)
        if self.config.throttle_enabled:
            self._throttle_feedback(rec, kind, correct, hw_mispredict)

    def _throttle_feedback(self, rec: DynamicInstruction, kind: str,
                           correct: bool, hw_mispredict: bool) -> None:
        """Demote paths whose predictions persistently do not help.

        A consumed prediction is *helpful* when it changed the outcome
        for the better: an early or late prediction that was correct
        while the hardware was wrong.  Everything else (useless arrivals,
        harmful disagreements, predictions merely confirming a correct
        hardware prediction) counts against the path.
        """
        key, _ = self._classification_identity(
            PathKey(rec.pc, self.tracker.current_branches()), 0)
        helpful = correct and hw_mispredict and kind in (
            "early", "late_useful")
        tally = self._throttle_tallies.setdefault(key, [0, 0])
        tally[0] += 1
        tally[1] += 0 if helpful else 1
        if tally[0] >= self.config.throttle_window:
            if tally[1] / tally[0] >= self.config.throttle_useless_fraction:
                self._throttled.add(key)
                self.throttled_paths += 1
                self._demote(key, self._key_id(key))
            self._throttle_tallies[key] = [0, 0]

    # -- retire-loop rare paths ----------------------------------------------
    # The fused loop in :mod:`repro.kernel.batched` inlines the common
    # retire work and dispatches its conditional blocks here, so engine
    # variants such as :mod:`repro.core.static` override these rather
    # than the loop.

    def _retire_store_violation(self, idx: int, rec: DynamicInstruction,
                                retire_cycle: int) -> None:
        """A store retired with live microthreads: check memory-dependence
        violations and apply the rebuild policy (paper §4.2.4)."""
        log = self.event_log
        for violated in self.spawner.on_store_retired(rec.ea, idx,
                                                      retire_cycle):
            self.prediction_cache.invalidate_writer(violated)
            if self.sanitizer is not None:
                self.sanitizer.note_violation(violated)
            key = violated.thread.key
            count = self._violation_counts.get(key, 0) + 1
            if log is not None:
                log.emit("violation", idx, retire_cycle,
                         violated.thread.term_pc, f"ea={rec.ea}")
            if count >= self.config.rebuild_violation_threshold:
                self._violation_counts[key] = 0
                self._schedule_rebuild(violated.thread)
            else:
                self._violation_counts[key] = count

    def _retire_taken_control(self, idx: int, rec: DynamicInstruction,
                              retire_cycle: int) -> None:
        """A taken control retired with live microthreads: advance
        Path_History suffix matching, aborting deviators (paper §4.3.2)."""
        for aborted in self.spawner.on_taken_control(rec.pc, idx,
                                                     retire_cycle):
            if aborted.arrival_cycle > retire_cycle:
                # Store_PCache had not completed: the write never lands.
                self.prediction_cache.invalidate_writer(aborted)

    def _retire_path_event(self, event: PathEvent, mispredicted: bool,
                           retire_cycle: int) -> None:
        """A complete path event retired: train the Path Cache and apply
        any promotion/demotion decision (paper §4.1, §4.2.1)."""
        classify_key, classify_id = self._classification_identity(
            event.key, event.path_id)
        promotion = self.path_cache.update(classify_key, classify_id,
                                           mispredicted)
        if self.sanitizer is not None:
            self.sanitizer.note_path_update(self, classify_key, classify_id)
        if promotion is not None:
            if promotion.promote:
                self._promote(event, retire_cycle)
            else:
                self._demote(classify_key, classify_id)

    # -- run lifecycle ----------------------------------------------------------

    def on_run_start(self, model: OoOTimingModel, trace: Trace) -> None:
        """Called by the timing model before its main loop."""
        self._timing_model = model
        if self.telemetry is not None:
            self.telemetry.on_run_start(model, trace)

    def on_run_end(self, result: TimingResult,
                   model: OoOTimingModel) -> None:
        """Called by the timing model after its main loop."""
        if self.telemetry is not None:
            self.telemetry.on_run_end(self, result)

    def live_timing_result(self) -> Optional[TimingResult]:
        """The in-progress :class:`TimingResult` of the current run, if a
        run is active (used by the interval sampler)."""
        model = self._timing_model
        return model.result if model is not None else None

    # -- promotion machinery ---------------------------------------------------

    def _classification_identity(self, key: PathKey,
                                 path_id: int) -> Tuple[PathKey, int]:
        """The identity difficulty is tracked under: the full path (the
        paper's mechanism) or the bare branch (the ablation)."""
        if self.config.classify_by_branch:
            branch_key = PathKey(key.term_pc, ())
            return branch_key, self._key_id(branch_key)
        return key, path_id

    def _key_id(self, key: PathKey) -> int:
        """The cache-indexing id for a classification key."""
        if self.config.classify_by_branch:
            return key.term_pc & ((1 << self.config.path_id_bits) - 1)
        return key.path_id(self.config.path_id_bits)

    def _promote(self, event: PathEvent, now_cycle: int) -> None:
        classify_key, classify_id = self._classification_identity(
            event.key, event.path_id)
        if classify_key in self._throttled:
            return  # usefulness feedback barred this path
        if self.telemetry is not None:
            self.telemetry.on_promote(event, now_cycle)
        thread = self.builder.request(event, self.prb, now_cycle)
        if thread is None:
            if self.event_log is not None:
                self.event_log.emit("build_failed", event.branch_idx,
                                    now_cycle, event.key.term_pc)
            if self.telemetry is not None:
                self.telemetry.on_build_failed(event, now_cycle,
                                               "builder busy or extraction "
                                               "failed")
            return  # builder busy/failed; Promoted stays clear, will retry
        if self.telemetry is not None:
            self.telemetry.on_build(thread, event, now_cycle,
                                    thread.available_cycle - now_cycle)
        if self.verifier is not None:
            # Audit while the extraction window is still PRB-resident
            # (and before the classify-by-branch key rewrite below).
            self.verifier.verify_built(thread, self.prb)
        if self.event_log is not None:
            self.event_log.emit(
                "build", event.branch_idx, now_cycle, event.key.term_pc,
                f"size={thread.routine_size} chain={thread.longest_chain} "
                f"sep={thread.separation}")
            self.event_log.emit("promote", event.branch_idx, now_cycle,
                                event.key.term_pc)
        if self.config.classify_by_branch:
            # One routine per branch, predictions keyed by branch identity.
            thread.key = classify_key
            thread.path_id = classify_id
        evicted = self.microram.insert(thread)
        if evicted is not None:
            self.path_cache.mark_promoted(evicted, self._key_id(evicted),
                                          False)
        self.path_cache.mark_promoted(classify_key, classify_id, True)
        if self.sanitizer is not None:
            self.sanitizer.note_promote(classify_key)

    def _demote(self, key: PathKey, path_id: int) -> None:
        self.microram.remove(key)
        self.path_cache.mark_promoted(key, path_id, False)
        if self.sanitizer is not None:
            self.sanitizer.note_demote(key)
        if self.event_log is not None:
            self.event_log.emit("demote", 0, 0, key.term_pc)
        if self.telemetry is not None:
            self.telemetry.on_demote(key.term_pc)

    def _schedule_rebuild(self, thread: Microthread) -> None:
        """Demote a violated routine; re-promotion rebuilds it against a
        PRB that now contains the conflicting store."""
        self.builder.stats.rebuilds += 1
        self._demote(thread.key, self._key_id(thread.key))

    # -- microthread execution -----------------------------------------------

    def _run_microthread(self, instance: ActiveMicrothread, idx: int,
                         fetch_cycle: int, engine: OoOTimingModel) -> None:
        cfg = self.config
        thread = instance.thread
        live_in_values = {reg: self.reg_values[reg]
                          for reg in thread.live_in_regs}
        prediction = thread.execute(
            live_in_values, self._memory_read,
            self._value_predict, self._address_predict,
        )
        instance.prediction = prediction
        instance.load_set = frozenset(prediction.loads_read)

        # Timing: one topological walk over the routine, claiming shared
        # issue slots and decode/rename bandwidth so microthread overhead
        # is visible to the primary thread.
        engine.add_frontend_debt(thread.routine_size)
        dispatch = fetch_cycle + cfg.spawn_dispatch_latency
        ready: Dict[int, int] = {}
        loads = iter(prediction.loads_read)
        completion = dispatch
        arrival = dispatch
        for node in thread.nodes:
            if node.kind == "livein":
                ready[node.uid] = max(dispatch, engine.reg_ready[node.reg])
                continue
            earliest = dispatch
            for child in node.inputs:
                t = ready[child.uid]
                if t > earliest:
                    earliest = t
            slot = engine.alloc_issue_slot(earliest)
            if node.kind == "load":
                latency = engine.caches.load_latency(next(loads), slot)
            elif node.kind in ("vp", "ap"):
                latency = cfg.vp_latency
            elif node.kind == "op" and node.op is not None:
                latency = engine.op_latency(node.op)
            else:  # const, branch (Store_PCache)
                latency = 1
            done = slot + latency
            ready[node.uid] = done
            if done > completion:
                completion = done
            if node.kind == "branch":
                arrival = done
        self.spawner.commit_timing(instance, completion, arrival)
        if self.telemetry is not None:
            self.telemetry.on_execute(instance, dispatch)

        entry = PredictionCacheEntry(prediction.taken, prediction.target,
                                     arrival, writer=instance)
        self.prediction_cache.write(thread.path_id, instance.target_seq,
                                    entry, current_seq=idx)

    # -- reporting ---------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Aggregate statistics from every subsystem."""
        return {
            "path_cache": self.path_cache.stats,
            "builder": self.builder.stats,
            "spawn": self.spawner.stats,
            "prediction_cache": self.prediction_cache.stats,
            "prediction_kinds": dict(self.prediction_kind_counts),
            "microram_routines": len(self.microram),
            "microthread_correct": self.correct_microthread_predictions,
            "microthread_incorrect": self.incorrect_microthread_predictions,
            "throttled_paths": self.throttled_paths,
        }


def run_ssmt(
    trace: Trace,
    config: Optional[SSMTConfig] = None,
    machine: MachineConfig = TABLE3_BASELINE,
    predictor: Optional[BranchPredictorComplex] = None,
    verifier: Optional["BuildVerifier"] = None,
    sanitizer: Optional["SimSanitizer"] = None,
    telemetry: Optional["TelemetrySession"] = None,
    event_log: Optional[EventLog] = None,
) -> Tuple[TimingResult, SSMTEngine]:
    """Run the full SSMT machine over ``trace``; returns timing + engine.

    The run goes through the fused retire loop of
    :class:`~repro.kernel.batched.OoOTimingModel`, whose import is
    deferred because :mod:`repro.kernel` imports this module.
    """
    engine = SSMTEngine(config, initial_memory=trace.initial_memory,
                        event_log=event_log,
                        verifier=verifier, sanitizer=sanitizer,
                        telemetry=telemetry)
    predictor = predictor if predictor is not None else BranchPredictorComplex()
    from repro.kernel.batched import OoOTimingModel

    model = OoOTimingModel(machine)
    result = model.run(trace, predictor, engine)
    return result, engine
