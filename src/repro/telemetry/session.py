"""TelemetrySession: one attachable bundle of registry + sampler + tracer.

The session is the engine-facing surface of the telemetry layer, built
on the same opt-in pattern as the runtime sanitizer ("simsan"): when no
session is attached the engine pays a single ``is None`` test per hook
site; when attached, each hook does O(1) work (the sampler's full row
read happens only at interval boundaries).

Wiring::

    session = TelemetrySession(sample_every=2000)
    result, engine = run_ssmt(trace, config, telemetry=session)
    report = session.build_report("gcc", result, engine)
    report.write_json("out.json")

The session registers every core structure's stats object into its
:class:`~repro.telemetry.registry.MetricsRegistry` under stable dotted
prefixes (``path_cache.*``, ``builder.*``, ``spawn.*``,
``prediction_cache.*``, ``microram.*``, ``engine.*``, and once a run
starts, ``branch.*``, ``timing.*``, ``caches.*``), and feeds
registry-native histograms with routine shapes and lifecycle latencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.report import RunReport
from repro.telemetry.sampler import IntervalSampler
from repro.telemetry.tracer import ThreadTracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.microthread import Microthread
    from repro.core.path import PathEvent
    from repro.core.spawn import ActiveMicrothread
    from repro.core.ssmt import SSMTEngine
    from repro.sim.trace import DynamicInstruction, Trace
    from repro.kernel.batched import OoOTimingModel
    from repro.uarch.timing import TimingResult


class TelemetrySession:
    """Registry + interval sampler + lifecycle tracer; see module docstring."""

    def __init__(self, sample_every: int = 2000,
                 trace_spans: bool = True,
                 max_spans: int = 10_000,
                 term_pc: Optional[int] = None,
                 max_samples: int = 100_000):
        self.registry = MetricsRegistry()
        self.sampler: Optional[IntervalSampler] = (
            IntervalSampler(sample_every, max_samples=max_samples)
            if sample_every else None)
        self.tracer: Optional[ThreadTracer] = (
            ThreadTracer(max_spans=max_spans, term_pc=term_pc)
            if trace_spans else None)
        self._attached: Optional["SSMTEngine"] = None
        self._run_registered = False
        #: pending (writer, fetch_cycle) per branch trace index, stashed at
        #: Prediction Cache lookup and consumed at outcome classification
        self._lookup_stash: Dict[int, Tuple[Any, int]] = {}

        reg = self.registry
        self.h_routine_size = reg.histogram(
            "microthread.routine_size",
            "micro-ops per built routine (log2 buckets)")
        self.h_chain_length = reg.histogram(
            "microthread.chain_length",
            "longest dependence chain per built routine")
        self.h_separation = reg.histogram(
            "microthread.separation",
            "instructions between spawn point and terminating branch")
        self.h_queue = reg.histogram(
            "lifecycle.queue_cycles",
            "spawn-point fetch to microthread dispatch")
        self.h_execute = reg.histogram(
            "lifecycle.execute_cycles",
            "dispatch to Store_PCache completion")
        self.h_early_by = reg.histogram(
            "prediction.early_by_cycles",
            "cycles a consumed prediction beat the target fetch by")
        self.h_late_by = reg.histogram(
            "prediction.late_by_cycles",
            "cycles a consumed prediction missed the target fetch by")

    # -- attachment ------------------------------------------------------------

    def attach(self, engine: "SSMTEngine") -> None:
        """Register every engine structure into the registry (called by
        the engine's constructor when a session is passed)."""
        if self._attached is engine:
            return
        if self._attached is not None:
            raise ValueError("telemetry session already attached to "
                             "another engine")
        self._attached = engine
        reg = self.registry
        reg.register("path_cache", engine.path_cache.stats)
        reg.register_callback("path_cache", lambda: {
            "occupancy": len(engine.path_cache),
            "difficult_entries": engine.path_cache.difficult_count(),
        })
        reg.register("builder", engine.builder.stats)
        reg.register("spawn", engine.spawner.stats)
        reg.register_callback("spawn", lambda: {
            "active": len(engine.spawner.active),
        })
        reg.register("prediction_cache", engine.prediction_cache.stats)
        reg.register_callback("prediction_cache", lambda: {
            "occupancy": len(engine.prediction_cache),
        })
        reg.register("microram", engine.microram)
        reg.register_callback("engine", lambda: dict(
            {f"kind_{k}": v
             for k, v in sorted(engine.prediction_kind_counts.items())},
            microthread_correct=engine.correct_microthread_predictions,
            microthread_incorrect=engine.incorrect_microthread_predictions,
            throttled_paths=engine.throttled_paths,
        ))
        if engine.event_log is not None:
            log = engine.event_log
            reg.register_callback("events", lambda: dict(
                {f"count_{k}": v for k, v in sorted(log.counts.items())},
                stored=len(log),
                dropped=sum(log.dropped.values()),
            ))
        if self.tracer is not None:
            reg.register("tracer", self.tracer)

    def on_run_start(self, model: "OoOTimingModel",
                     trace: "Trace") -> None:
        """Bind run-scoped collectors (timing result, caches, predictor)."""
        if self._run_registered:
            return
        self._run_registered = True
        reg = self.registry
        if model.caches is not None:
            reg.register("caches", model.caches.stats)
        predictor = getattr(model, "predictor", None)
        if predictor is not None and hasattr(predictor, "as_dict"):
            reg.register("branch", predictor)

        def timing_view() -> Dict[str, Any]:
            result = model.result
            return result.as_dict(include_cache=False) \
                if result is not None else {}

        reg.register_callback("timing", timing_view)

    # -- engine hooks ----------------------------------------------------------

    def on_retire(self, engine: "SSMTEngine", idx: int,
                  rec: "DynamicInstruction", retire_cycle: int) -> None:
        if self.sampler is not None:
            self.sampler.on_retire(engine, idx, retire_cycle)

    @property
    def retire_hook(self) -> Optional[Callable[["SSMTEngine", int, int], None]]:
        """Bound per-retire callable, or None when nothing samples retires.

        The engine binds this once at attach and calls it directly —
        ``(engine, idx, retire_cycle)`` per retired instruction — instead
        of routing through :meth:`on_retire`.  One pass-through frame per
        retire is ~10% of the whole detached engine's per-instruction
        budget, which is exactly the overhead contract
        ``benchmarks/test_simulator_throughput.py`` enforces.  Subclasses
        adding per-retire work must override this, not just
        :meth:`on_retire`.
        """
        return self.sampler.on_retire if self.sampler is not None else None

    @property
    def control_hook(self) -> Optional[Callable[..., None]]:
        """Bound per-terminating-branch callable, or None when nothing
        observes branch resolutions.

        The engine binds this once at construction and dispatches
        ``(engine, idx, rec, outcome, fetch_cycle, resolve_cycle)`` per
        path-terminating branch.  The base session records nothing per
        branch (its counters come from the structures' own stats), so it
        returns ``None`` and the engine's dispatch stays one identity
        test; the observability layer's session
        (:class:`repro.obs.session.ObsSession`) overrides this to emit
        mispredict/occupancy events and drive the flight recorder.
        """
        return None

    def on_promote(self, event: "PathEvent", cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.on_promote(event, cycle)

    def on_build(self, thread: "Microthread", event: "PathEvent",
                 cycle: int, build_latency: int) -> None:
        self.h_routine_size.observe(thread.routine_size)
        self.h_chain_length.observe(thread.longest_chain)
        self.h_separation.observe(thread.separation)
        if self.tracer is not None:
            self.tracer.on_build(thread, event, cycle, build_latency)

    def on_build_failed(self, event: "PathEvent", cycle: int,
                        reason: str) -> None:
        if self.tracer is not None:
            self.tracer.on_build_failed(event, cycle, reason)

    def on_demote(self, term_pc: int) -> None:
        if self.tracer is not None:
            self.tracer.on_demote(term_pc)

    def on_execute(self, instance: "ActiveMicrothread",
                   dispatch_cycle: int) -> None:
        self.h_queue.observe(max(0, dispatch_cycle - instance.spawn_cycle))
        self.h_execute.observe(
            max(0, instance.arrival_cycle - dispatch_cycle))
        if self.tracer is not None:
            self.tracer.on_execute(instance, dispatch_cycle)

    def note_lookup(self, idx: int, writer: Any, fetch_cycle: int) -> None:
        """Stash the Prediction Cache hit's writer so the upcoming outcome
        classification can be attributed to its span."""
        self._lookup_stash[idx] = (writer, fetch_cycle)

    def on_outcome(self, idx: int, rec: "DynamicInstruction", kind: str,
                   correct: bool) -> None:
        stashed = self._lookup_stash.pop(idx, None)
        if stashed is None:
            return
        writer, fetch_cycle = stashed
        arrival = getattr(writer, "arrival_cycle", None)
        if arrival is not None:
            if arrival <= fetch_cycle:
                self.h_early_by.observe(fetch_cycle - arrival)
            else:
                self.h_late_by.observe(arrival - fetch_cycle)
        if self.tracer is not None and writer is not None:
            self.tracer.on_outcome(writer, kind, correct, fetch_cycle)

    def on_run_end(self, engine: "SSMTEngine",
                   result: "TimingResult") -> None:
        if self.sampler is not None:
            self.sampler.flush(engine, result)
        if self.tracer is not None:
            self.tracer.finish()
        self._lookup_stash.clear()

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def build_report(self, benchmark: str, result: "TimingResult",
                     engine: "SSMTEngine") -> RunReport:
        """Assemble the full :class:`RunReport` for a finished run."""
        import dataclasses

        return RunReport(
            benchmark=benchmark,
            instructions=result.instructions,
            config=dataclasses.asdict(engine.config),
            timing=result.as_dict(),
            metrics=self.registry.snapshot(),
            samples=self.sampler.rows() if self.sampler is not None else [],
            spans=(self.tracer.span_rows()
                   if self.tracer is not None else []),
            routines=(self.tracer.routine_rows()
                      if self.tracer is not None else []),
            span_summary=(self.tracer.as_dict()
                          if self.tracer is not None else {}),
        )
