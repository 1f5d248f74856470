"""Command-line interface.

``python -m repro <command>`` exposes the main workflows:

* ``suite`` — list the synthetic benchmarks,
* ``run`` — baseline vs SSMT comparison on one benchmark; with
  ``--metrics-out`` it also writes a full machine-readable telemetry
  report (see ``docs/telemetry.md``),
* ``trace`` — microthread lifecycle spans (promote → build → spawn →
  execute → outcome) on one benchmark; ``--perfetto`` additionally
  writes the run's ``repro.obs/1`` Chrome trace-event timeline and
  ``--flight-out`` the misprediction flight recorder's
  ``repro.obs.flight/1`` post-mortem dumps (see
  ``docs/observability.md``),
* ``postmortem`` — render (and with ``--diff`` compare) flight-recorder
  artifacts: which H2P branches triggered, what the machine was doing
  in the cycles before each misprediction,
* ``profile`` — Table 1/2-style difficult-path profiling; with
  ``--perf`` it instead profiles the *simulator* under cProfile and
  reports (or writes, with ``--out``) a per-subsystem time breakdown
  (``repro.perf/1``; see ``docs/performance.md``),
* ``experiment`` — regenerate one of the paper's tables/figures; with
  ``--json-out DIR`` it also writes a ``BENCH_<which>.json`` artifact;
  ``--jobs N`` fans simulations across a process pool,
* ``sweep`` — run a (benchmark x width x config-knob) grid through the
  parallel sweep runner with on-disk result caching (``--jobs``,
  ``--cache-dir``, ``--no-resume``; see ``docs/telemetry.md``);
  ``--predictor`` swaps the hardware direction predictor for a zoo
  baseline (see ``docs/predictors.md``); ``--trace-out`` collects
  per-worker ``repro.obs/1`` trace shards and merges them, and
  ``--live`` streams heartbeat progress lines with stall surfacing,
* ``arena`` — the predictor arena: re-run the figure pipeline once per
  zoo baseline and emit the ``repro.arena/1``
  SSMT-headroom-vs-baseline-strength artifact with per-path H2P
  analytics (see ``docs/predictors.md``),
* ``disasm`` — disassemble a generated benchmark,
* ``verify`` — statically verify every built microthread (and, with
  ``--sanitize``, check runtime invariants); exits non-zero on errors
  so CI can gate on it,
* ``lint`` — AST-based determinism / hot-path / schema-governance
  analysis of the codebase itself (see ``docs/lint.md``); exits
  non-zero on errors so CI can gate on it,
* ``serve`` — run the sweep service: an HTTP API over a journaled job
  queue that shards submitted grids across the sweep runner's worker
  pools, with fair scheduling across tenants and a shared
  content-addressed result store (see ``docs/service.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

from repro.analysis import (
    characterize_paths,
    collect_control_events,
    coverage_analysis,
    format_table,
)
from repro.analysis.experiments import (
    baseline_run,
    figure6_potential,
    figure7_realistic,
    figure8_routines,
    figure9_timeliness,
    intro_perfect_prediction,
)
from repro.branch.unit import BranchPredictorComplex
from repro.core.ssmt import SSMTConfig, run_ssmt
from repro.core.static import run_profile_guided
from repro.kernel import SampleSpec, run_sampled
from repro.parallel import (
    SweepRunner,
    build_grid,
    merge_sweep,
    parse_knob_value,
)
from repro.telemetry import TelemetrySession, write_bench_json
from repro.verify import RULES, SimSanitizer, verify_suite
from repro.verify.runner import DEFAULT_VERIFY_LENGTH
from repro.workloads import BENCHMARK_NAMES, benchmark_trace, build_benchmark
from repro.workloads.suite import DEFAULT_TRACE_LENGTH


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instructions", type=int,
                        default=DEFAULT_TRACE_LENGTH,
                        help="dynamic instructions to simulate")


def _add_sample_args(parser: argparse.ArgumentParser) -> None:
    """The sampled-simulation flags (repro.kernel.sampling)."""
    parser.add_argument("--sample-interval", type=int, default=None,
                        metavar="N",
                        help="run sampled simulation with this period in "
                             "instructions (detailed warmup+measure "
                             "windows, functional fast-forward between; "
                             "results are extrapolations marked "
                             "'sampled')")
    parser.add_argument("--sample-warmup", type=int, default=2000,
                        metavar="N",
                        help="detailed warm-up instructions per sampling "
                             "period (with --sample-interval)")


def _sample_spec(args):
    """Build a SampleSpec from CLI args; None when sampling is off."""
    if args.sample_interval is None:
        return None
    try:
        return SampleSpec(interval=args.sample_interval,
                          warmup=args.sample_warmup)
    except ValueError as error:
        raise SystemExit(f"--sample-interval: {error}")


def _check_benchmark(name: str) -> str:
    if name not in BENCHMARK_NAMES:
        raise SystemExit(
            f"unknown benchmark {name!r}; run 'python -m repro suite'")
    return name


def cmd_suite(_args) -> int:
    rows = []
    for name in BENCHMARK_NAMES:
        program = build_benchmark(name)
        rows.append([name, len(program), program.static_branch_count()])
    print(format_table(["benchmark", "static insts", "static controls"],
                       rows, title="Synthetic suite"))
    return 0


def cmd_run(args) -> int:
    name = _check_benchmark(args.benchmark)
    trace = benchmark_trace(name, args.instructions)
    sample = _sample_spec(args)
    if args.profile_guided and sample is not None:
        raise SystemExit(
            "--sample-interval samples the dynamic engine's retire loop; "
            "it cannot be combined with --profile-guided")
    if sample is not None and (args.sanitize or args.metrics_out):
        raise SystemExit(
            "--sample-interval fast-forwards between detailed windows, "
            "which breaks the sanitizer/telemetry contract of observing "
            "every retired instruction; drop --sanitize/--metrics-out "
            "or run exact")
    if sample is not None:
        base = run_sampled(trace, BranchPredictorComplex(), sample)
    else:
        base = baseline_run(trace)
    config = SSMTConfig(n=args.n, difficulty_threshold=args.threshold,
                        pruning=not args.no_pruning)
    sanitizer = None
    if args.sanitize:
        if args.profile_guided:
            raise SystemExit(
                "--sanitize checks the dynamic engine's structures; it "
                "cannot be combined with --profile-guided")
        sanitizer = SimSanitizer()
    telemetry = None
    if args.metrics_out:
        if args.profile_guided:
            raise SystemExit(
                "--metrics-out instruments the dynamic engine; it cannot "
                "be combined with --profile-guided")
        telemetry = TelemetrySession(sample_every=args.sample_every)
    if args.profile_guided:
        result, engine = run_profile_guided(trace, config)
        label = "profile-guided SSMT"
    else:
        result, engine = run_ssmt(trace, config, sanitizer=sanitizer,
                                  telemetry=telemetry, sample=sample)
        label = "dynamic SSMT"
    suffix = " [sampled]" if sample is not None else ""
    print(format_table(
        ["configuration", "IPC", "mispredicts", "speed-up"],
        [
            ["baseline", round(base.ipc, 3), base.effective_mispredicts, 1.0],
            [label, round(result.ipc, 3), result.effective_mispredicts,
             round(result.ipc / base.ipc, 3)],
        ],
        title=f"{name} ({args.instructions} instructions){suffix}"))
    if sample is not None and result.sample is not None:
        s = result.sample
        print(f"sampled: interval={s['interval']} warmup={s['warmup']} "
              f"measure={s['measure']} windows={s['windows']} "
              f"measured_fraction={s['measured_fraction']}")
    spawn = engine.spawner.stats
    print(f"\nroutines: {len(engine.microram)}  spawned: {spawn.spawned}  "
          f"aborted: {spawn.aborted_active}  "
          f"arrivals: {dict(engine.prediction_kind_counts)}")
    if telemetry is not None:
        report = telemetry.build_report(name, result, engine)
        report.write(args.metrics_out)
        completed = sum(1 for s in report.spans
                        if s["status"] == "completed")
        print(f"wrote {args.metrics_out} ({len(report.metrics)} metrics, "
              f"{len(report.samples)} samples, {len(report.spans)} spans, "
              f"{completed} completed)")
    if sanitizer is not None:
        report = sanitizer.final_check(engine)
        return _print_sanitizer_summary(report)
    return 0


def _print_sanitizer_summary(report) -> int:
    """Render the simsan outcome; non-zero exit when invariants broke."""
    by_rule = {}
    for diag in report.diagnostics:
        by_rule[diag.rule] = by_rule.get(diag.rule, 0) + 1
    rows = [[rule, count, RULES[rule].split(":")[0]]
            for rule, count in sorted(by_rule.items())]
    print()
    if not rows:
        print("sanitizer: all runtime invariants held")
        return 0
    print(format_table(["rule", "count", "invariant"], rows,
                       title="Sanitizer violations"))
    for diag in report.diagnostics[:20]:
        print("  " + diag.format())
    if len(report.diagnostics) > 20:
        print(f"  ... ({len(report.diagnostics) - 20} more)")
    return 1


def cmd_verify(args) -> int:
    if args.rules:
        rows = [[rule, text] for rule, text in sorted(RULES.items())]
        print(format_table(["rule", "description"], rows,
                           title="Verifier rules and sanitizer invariants"))
        return 0
    if args.benchmarks:
        benchmarks = tuple(_check_benchmark(b) for b in args.benchmarks)
    else:
        benchmarks = BENCHMARK_NAMES
    config = SSMTConfig(n=args.n, difficulty_threshold=args.threshold)
    results = verify_suite(benchmarks, instructions=args.instructions,
                           config=config, sanitize=args.sanitize)
    rows = []
    failing = []
    for r in results:
        status = "ok" if r.ok else "FAIL"
        rows.append([r.benchmark, r.routines_built, r.clean, r.error_count,
                     r.warning_count, r.sanitizer_errors, status])
        if not r.ok:
            failing.append(r)
    print(format_table(
        ["benchmark", "built", "clean", "errors", "warnings",
         "san errors", "status"],
        rows, title=f"Microthread verification ({args.instructions} "
                    f"instructions, n={args.n}, T={args.threshold})"))
    total_errors = sum(r.error_count + r.sanitizer_errors for r in results)
    total_built = sum(r.routines_built for r in results)
    print(f"\n{total_built} routines verified, {total_errors} errors")
    for r in failing:
        print(f"\n== {r.benchmark} ==")
        for report in r.error_reports[:args.max_reports]:
            print(report.format())
        if r.sanitizer_report is not None and r.sanitizer_report.errors:
            print(r.sanitizer_report.format())
    return 1 if failing else 0


def cmd_lint(args) -> int:
    """Static analysis of the repo itself (see docs/lint.md)."""
    from repro.lint import LINT_RULES, LintEngine

    if args.rules:
        rows = [[rule, text.split(":")[0], text.split(": ", 1)[1]]
                for rule, text in sorted(LINT_RULES.items())]
        print(format_table(["rule", "name", "description"], rows,
                           title="Lint rules"))
        return 0
    engine = LintEngine(args.root, baseline_path=args.baseline,
                        rules=args.select or None)
    report = engine.run()
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok() else 1


def cmd_trace(args) -> int:
    """Microthread lifecycle tracing: every promotion/build outcome and
    every spawned instance's span, one line each."""
    import time

    name = _check_benchmark(args.benchmark)
    trace = benchmark_trace(name, args.instructions)
    flight = None
    obs_requested = bool(args.perfetto or args.flight_out)
    if obs_requested:
        # Deferred import: plain tracing never touches repro.obs
        # (tests/test_obs.py pins the untraced path down).
        from repro.obs import FlightRecorder, ObsSession
        from repro.obs.events import PH_COMPLETE
        # classification deliberately stays on the repro.analysis.h2p
        # defaults, NOT --threshold: the promotion knob must not move
        # the H2P yardstick, or an SSMT-off run (--threshold ~1) would
        # classify nothing as H2P and postmortem diffs would compare
        # different regimes instead of different machines
        flight = FlightRecorder(window=args.flight_window)
        telemetry: TelemetrySession = ObsSession(
            sample_every=0, max_spans=args.max_spans,
            term_pc=args.term_pc, flight=flight)
    else:
        telemetry = TelemetrySession(sample_every=0,
                                     max_spans=args.max_spans,
                                     term_pc=args.term_pc)
    config = SSMTConfig(n=args.n, difficulty_threshold=args.threshold)
    wall_start = time.monotonic()
    result, engine = run_ssmt(trace, config, telemetry=telemetry)
    if obs_requested:
        # One wall-domain span for the whole simulation, so the
        # artifact renders both clock domains as separate tracks.
        telemetry.recorder.wall(
            "task_run", ph=PH_COMPLETE, ts=0.0,
            dur=(time.monotonic() - wall_start) * 1e6,
            label=name, kind="ssmt")
    tracer = telemetry.tracer
    assert tracer is not None
    scope = (f" for branch@{args.term_pc}"
             if args.term_pc is not None else "")
    print(f"{name} ({args.instructions} instructions){scope}\n")
    print(f"== routines ({len(tracer.routines)}) ==")
    for record in tracer.routines:
        if record.built:
            detail = (f"built  size={record.routine_size} "
                      f"chain={record.longest_chain} "
                      f"sep={record.separation} "
                      f"latency={record.build_latency}")
        else:
            detail = f"build failed: {record.fail_reason}"
        print(f"promote@{record.promoted_idx:<8} "
              f"branch@{record.term_pc:<6} {detail}")
    spans = list(tracer.spans)
    shown = spans[-args.limit:] if args.limit else spans
    print(f"\n== spans ({len(spans)}"
          + (f", last {len(shown)}" if len(shown) < len(spans) else "")
          + ") ==")
    for span in shown:
        print(span.format())
    print("\n== summary ==")
    for key, value in tracer.as_dict().items():
        print(f"{key:>28}: {value}")
    if args.out:
        telemetry.build_report(name, result, engine).write(args.out)
        print(f"\nwrote {args.out}")
    if obs_requested:
        context = {"benchmark": name, "instructions": args.instructions,
                   "n": args.n, "threshold": args.threshold}
        if args.perfetto:
            payload = telemetry.write_trace(args.perfetto, context=context)
            print(f"\nwrote {args.perfetto} "
                  f"({len(payload['traceEvents'])} trace events; open at "
                  f"https://ui.perfetto.dev)")
        if args.flight_out:
            from repro.obs.flight import write_flight
            assert flight is not None
            write_flight(args.flight_out, flight, context=context)
            print(f"wrote {args.flight_out} "
                  f"({flight.h2p_mispredicts} H2P mispredicts, "
                  f"{len(flight.dumps)} dumps; "
                  f"render with 'repro postmortem')")
    return 0


def cmd_postmortem(args) -> int:
    """Render (and optionally diff) flight-recorder artifacts."""
    from repro.obs.flight import diff_flight, load_flight

    try:
        payload = load_flight(args.run)
    except (OSError, ValueError) as exc:
        print(f"cannot load flight artifact: {exc}", file=sys.stderr)
        return 1
    print(f"flight: {args.run}")
    thresholds = payload["thresholds"]
    print(f"h2p_mispredicts={payload['h2p_mispredicts']} "
          f"dumps={len(payload['dumps'])} "
          f"trigger_pcs={len(payload['triggers_by_pc'])} "
          f"window={payload['window']} "
          f"(difficult>{thresholds['difficult']}, "
          f"min_occurrences={thresholds['min_occurrences']})")
    for dump in payload["dumps"][:args.dumps]:
        rate = dump["mispredict_rate"]
        print(f"\ndump#{dump['dump_id']} branch@{dump['pc']} "
              f"idx={dump['idx']} cycle={dump['cycle']} "
              f"rate={rate:.2f} "
              f"({dump['mispredicts']}/{dump['occurrences']})")
        path = dump["path"]
        print(f"  path: {path}")
        for event in dump["events"][-args.events:]:
            rendered = " ".join(f"{k}={v}" for k, v
                                in sorted(event["args"].items()))
            print(f"  cycle {event['ts']:>8} {event['name']:<24} "
                  f"{rendered}")
        for inflight in dump["inflight"]:
            print(f"  in-flight branch@{inflight['term_pc']} "
                  f"spawned@{inflight['spawn_cycle']} "
                  f"arrival@{inflight['arrival_cycle']} "
                  f"slack={inflight['slack_vs_trigger']:+d} "
                  f"aborted={inflight['aborted']}")
    shown = min(args.dumps, len(payload["dumps"]))
    if shown < len(payload["dumps"]):
        print(f"\n... ({len(payload['dumps']) - shown} more dumps; "
              f"raise --dumps)")
    if args.diff:
        try:
            other = load_flight(args.diff)
        except (OSError, ValueError) as exc:
            print(f"cannot load diff artifact: {exc}", file=sys.stderr)
            return 1
        diff = diff_flight(payload, other)
        print(f"\n== diff vs {args.diff} ==")
        print(f"h2p mispredicts: {diff['reference_h2p_mispredicts']} -> "
              f"{diff['candidate_h2p_mispredicts']}")
        print(f"repaired pcs:   {diff['repaired_pcs']}")
        print(f"surviving pcs:  {diff['surviving_pcs']}")
        print(f"introduced pcs: {diff['introduced_pcs']}")
        changed = {name: mix for name, mix in diff["event_mix"].items()
                   if mix["reference"] != mix["candidate"]}
        for event_name, mix in sorted(changed.items()):
            print(f"  {event_name:<24} {mix['reference']:>6} -> "
                  f"{mix['candidate']}")
    return 0


def cmd_profile(args) -> int:
    name = _check_benchmark(args.benchmark)
    if args.perf:
        from repro.perf import ProfileHarness
        report = ProfileHarness(name, args.instructions,
                                telemetry=args.telemetry,
                                top=args.top).run()
        print(report.format_table())
        payload = report.payload
        print(f"\n{payload['instructions_per_second']:,.0f} simulated "
              f"instructions/sec ({payload['wall_seconds']:.3f}s wall)")
        if args.out:
            report.write(args.out)
            print(f"wrote {args.out}")
        return 0
    events = collect_control_events(benchmark_trace(name, args.instructions))
    rows = []
    for n in args.n:
        c = characterize_paths(events, n)
        rows.append([n, c.unique_paths, round(c.mean_scope, 1),
                     c.difficult_paths[0.05], c.difficult_paths[0.10],
                     c.difficult_paths[0.15]])
    print(format_table(
        ["n", "paths", "scope", "difficult@.05", "@.10", "@.15"],
        rows, title=f"{name}: path characterization (Table 1)"))
    results = coverage_analysis(events, ns=tuple(args.n),
                                thresholds=(args.threshold,))
    rows = [[r.scheme, round(100 * r.mispredict_coverage, 1),
             round(100 * r.execution_coverage, 1)] for r in results]
    print()
    print(format_table(["scheme", "mis%", "exe%"], rows,
                       title=f"{name}: coverage at T={args.threshold} (Table 2)"))
    return 0


def cmd_experiment(args) -> int:
    benchmarks = tuple(args.benchmarks) if args.benchmarks else BENCHMARK_NAMES
    for name in benchmarks:
        _check_benchmark(name)
    length = args.instructions
    runner_kwargs = {"jobs": args.jobs, "cache_dir": args.cache_dir}
    json_results: Dict[str, Any] = {}

    if args.which == "intro":
        speedups = intro_perfect_prediction(benchmarks, length,
                                            **runner_kwargs)
        rows = [[k, round(v, 3)] for k, v in speedups.items()]
        json_results = {k: {"speedup": v} for k, v in speedups.items()}
        print(format_table(["bench", "speed-up"], rows,
                           title="Perfect-prediction headroom (§1)"))
    elif args.which == "fig6":
        results = figure6_potential(benchmarks, trace_length=length,
                                    **runner_kwargs)
        rows = [[k] + [round(v[n], 3) for n in (4, 10, 16)]
                for k, v in results.items()]
        json_results = {k: {f"n{n}": v[n] for n in (4, 10, 16)}
                        for k, v in results.items()}
        print(format_table(["bench", "n=4", "n=10", "n=16"], rows,
                           title="Figure 6: potential speed-up"))
    elif args.which == "fig7":
        results = figure7_realistic(benchmarks, trace_length=length,
                                    **runner_kwargs)
        rows = [[r.benchmark, round(r.baseline_ipc, 2),
                 round(r.speedup_no_pruning, 3), round(r.speedup_pruning, 3),
                 round(r.speedup_overhead_only, 3)] for r in results]
        mean_gain = 100 * (statistics.mean(
            r.speedup_pruning for r in results) - 1)
        json_results = {r.benchmark: {
            "baseline_ipc": r.baseline_ipc,
            "speedup_no_pruning": r.speedup_no_pruning,
            "speedup_pruning": r.speedup_pruning,
            "speedup_overhead_only": r.speedup_overhead_only,
        } for r in results}
        json_results["_mean_gain_pct"] = round(mean_gain, 3)
        print(format_table(
            ["bench", "base IPC", "no-pruning", "pruning", "overhead"],
            rows, title="Figure 7: realistic speed-up"))
        print(f"\nmean gain with pruning: {mean_gain:.1f}% "
              f"(paper: 8.4%)")
        if args.chart:
            from repro.analysis.charts import grouped_bar_chart

            print()
            print(grouped_bar_chart(
                {r.benchmark: {"pruning": r.speedup_pruning,
                               "no-pruning": r.speedup_no_pruning,
                               "overhead": r.speedup_overhead_only}
                 for r in results},
                title="Figure 7 (bars)"))
    elif args.which == "fig8":
        realistic = figure7_realistic(benchmarks, trace_length=length,
                                      **runner_kwargs)
        routines = figure8_routines(realistic)
        rows = [[k, round(v["size_no_pruning"], 2),
                 round(v["size_pruning"], 2),
                 round(v["chain_no_pruning"], 2),
                 round(v["chain_pruning"], 2)]
                for k, v in routines.items()]
        json_results = {k: dict(v) for k, v in routines.items()}
        print(format_table(
            ["bench", "size np", "size p", "chain np", "chain p"],
            rows, title="Figure 8: routine size & dependence chain"))
    elif args.which == "fig9":
        realistic = figure7_realistic(benchmarks, trace_length=length,
                                      **runner_kwargs)
        timeliness = figure9_timeliness(realistic)
        rows = []
        for k, v in timeliness.items():
            p = v["pruning"]
            rows.append([k, round(100 * p["early"], 1),
                         round(100 * p["late"], 1),
                         round(100 * p["useless"], 1), p["total"]])
        json_results = {k: {mode: dict(stats)
                            for mode, stats in v.items()}
                        for k, v in timeliness.items()}
        print(format_table(["bench", "early%", "late%", "useless%", "total"],
                           rows, title="Figure 9: timeliness (pruning)"))
    else:  # table1 / table2 via profile over all benchmarks
        for name in benchmarks:
            events = collect_control_events(benchmark_trace(name, length))
            if args.which == "table1":
                rows = []
                per_n: Dict[str, Any] = {}
                for n in (4, 10, 16):
                    c = characterize_paths(events, n)
                    rows.append([n, c.unique_paths, round(c.mean_scope, 1),
                                 c.difficult_paths[0.10]])
                    per_n[f"n{n}"] = {
                        "unique_paths": c.unique_paths,
                        "mean_scope": round(c.mean_scope, 3),
                        "difficult_at_10": c.difficult_paths[0.10],
                    }
                json_results[name] = per_n
                print(format_table(["n", "paths", "scope", "difficult@.10"],
                                   rows, title=f"Table 1: {name}"))
            else:
                results = coverage_analysis(events, thresholds=(0.10,))
                rows = [[r.scheme, round(100 * r.mispredict_coverage, 1),
                         round(100 * r.execution_coverage, 1)]
                        for r in results]
                json_results[name] = {
                    r.scheme: {
                        "mispredict_coverage": round(
                            r.mispredict_coverage, 6),
                        "execution_coverage": round(
                            r.execution_coverage, 6),
                    } for r in results}
                print(format_table(["scheme", "mis%", "exe%"], rows,
                                   title=f"Table 2: {name}"))
            print()

    if args.json_out:
        os.makedirs(args.json_out, exist_ok=True)
        path = os.path.join(args.json_out, f"BENCH_{args.which}.json")
        write_bench_json(path, args.which, json_results, context={
            "instructions": length,
            "benchmarks": list(benchmarks),
        })
        print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    """Run a configuration grid through the parallel sweep runner."""
    benchmarks = tuple(args.benchmarks) if args.benchmarks else BENCHMARK_NAMES
    for name in benchmarks:
        _check_benchmark(name)
    if args.values and not args.knob:
        raise SystemExit("--values requires --knob")
    values = tuple(parse_knob_value(args.knob, raw) for raw in args.values) \
        if args.knob else ()
    predictor = None
    if args.predictor:
        # Imported only when asked for: the default sweep never touches
        # the zoo (see tests/test_zoo_zero_cost.py).
        from repro.branch.zoo import ARENA_BASELINES
        if args.predictor not in ARENA_BASELINES:
            raise SystemExit(
                f"unknown predictor {args.predictor!r}; choose from "
                + ", ".join(sorted(ARENA_BASELINES)))
        predictor = ARENA_BASELINES[args.predictor]
    sample = _sample_spec(args)
    tasks = build_grid(benchmarks, args.instructions,
                       knob=args.knob, values=values,
                       widths=tuple(args.widths or ()),
                       predictor=predictor, sample=sample)
    runner_kwargs: Dict[str, Any] = {}
    observer = None
    if args.trace_out or args.live:
        # Deferred import: an untraced sweep never touches repro.obs
        # (tests/test_obs.py pins the default path down).
        from repro.obs import SweepObs
        observer = SweepObs(live=args.live,
                            heartbeat_interval=args.heartbeat)
        runner_kwargs["observer"] = observer
    if args.trace_out:
        import functools

        from repro.parallel.worker import run_task_traced
        os.makedirs(args.trace_out, exist_ok=True)
        runner_kwargs["worker"] = functools.partial(
            run_task_traced, trace_dir=args.trace_out)
    runner = SweepRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                         resume=args.resume, task_timeout=args.timeout,
                         max_retries=args.retries, **runner_kwargs)
    preexisting = len(runner.cache) if runner.cache is not None else 0
    outcome = runner.run(tasks)
    if (args.resume and preexisting > 0 and outcome.cache_hits == 0
            and outcome.cache_misses > 0):
        # Every stored entry missed: almost always a CODE_SCHEMA_VERSION
        # bump since the cache was written (task keys embed the version,
        # so foreign-version entries can never match).
        print("sweep: --resume found a populated cache but no entry "
              "matched this grid; entries written under a different "
              "CODE_SCHEMA_VERSION are invalidated by design (see "
              "docs/service.md, 'Cache invalidation')", file=sys.stderr)
    context_extra: Dict[str, Any] = {}
    if sample is not None:
        context_extra["sample"] = {"interval": sample.interval,
                                   "warmup": sample.warmup,
                                   "measure": sample.measure}
    merged = merge_sweep(outcome.results, context={
        "benchmarks": list(benchmarks),
        "instructions": args.instructions,
        "knob": args.knob,
        "values": list(values),
        "widths": list(args.widths or ()),
        "predictor": args.predictor or None,
        **context_extra,
        "jobs": outcome.jobs,
        "simulated": outcome.simulated,
        "cache_hits": outcome.cache_hits,
        "deduped": outcome.deduped,
        "retries": outcome.retries,
        "elapsed": round(outcome.elapsed, 3),
    }, errors=outcome.errors)

    rows = [[label, agg["mean_speedup"], agg["geomean_speedup"]]
            for label, agg in merged["aggregates"].items()]
    if rows:
        print(format_table(["config", "mean speed-up", "geomean"], rows,
                           title=f"Sweep over {len(benchmarks)} benchmarks "
                                 f"({args.instructions} instructions)"))
        print()
    print(outcome.summary_line())
    for key, reason in outcome.errors.items():
        print(f"  failed {key[:16]}: {reason}", file=sys.stderr)

    if args.trace_out:
        from repro.obs.sweepobs import load_shards, write_merged_trace
        shards = load_shards(args.trace_out)
        merged_path = os.path.join(args.trace_out,
                                   "sweep-merged.perfetto.json")
        write_merged_trace(merged_path, shards, context={
            "benchmarks": list(benchmarks),
            "instructions": args.instructions,
        })
        print(f"wrote {merged_path} ({len(shards)} shards; open at "
              f"https://ui.perfetto.dev)")
        if observer is not None:
            runner_path = os.path.join(args.trace_out,
                                       "sweep-runner.perfetto.json")
            observer.write_trace(runner_path,
                                 context={"jobs": outcome.jobs})
            print(f"wrote {runner_path}")

    if args.json_out:
        os.makedirs(os.path.dirname(args.json_out) or ".", exist_ok=True)
        with open(args.json_out, "w") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    if args.bench_out:
        os.makedirs(args.bench_out, exist_ok=True)
        path = os.path.join(args.bench_out, "BENCH_sweep.json")
        write_bench_json(path, "sweep", merged["aggregates"],
                         context=merged["context"])
        print(f"wrote {path}")
    return 1 if outcome.failures else 0


def cmd_arena(args) -> int:
    """Run the predictor arena (see docs/predictors.md)."""
    from repro.analysis.arena import run_arena

    benchmarks = tuple(args.benchmarks) if args.benchmarks else BENCHMARK_NAMES
    for name in benchmarks:
        _check_benchmark(name)
    try:
        artifact = run_arena(benchmarks, args.instructions,
                             baselines=args.predictors or None,
                             jobs=args.jobs, cache_dir=args.cache_dir,
                             resume=args.resume,
                             sample=_sample_spec(args))
    except ValueError as error:
        raise SystemExit(str(error))

    rows = [[label, row["mean_accuracy"], row["geomean_ssmt_speedup"],
             row["geomean_potential_speedup"],
             row["geomean_oracle_headroom"]]
            for label, row in artifact["headroom"].items()]
    print(format_table(
        ["baseline", "accuracy", "ssmt", "potential", "oracle headroom"],
        rows, title=f"Predictor arena over {len(benchmarks)} benchmarks "
                    f"({args.instructions} instructions)"))
    print()
    targets = artifact["calibration_targets"]
    rows = [[name, t["strongest_baseline"], t["target_accuracy"],
             t["surviving_h2p_paths"], t["target_h2p_fraction"]]
            for name, t in targets.items()]
    print(format_table(
        ["bench", "strongest", "accuracy", "surviving h2p", "h2p frac"],
        rows, title="Workload calibration targets"))
    context = artifact["context"]
    print(f"\narena: baselines={len(artifact['headroom'])} "
          f"benchmarks={len(benchmarks)} points={context['points']} "
          f"simulated={context['simulated']} "
          f"cache_hits={context['cache_hits']}")

    if args.json_out:
        os.makedirs(os.path.dirname(args.json_out) or ".", exist_ok=True)
        with open(args.json_out, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    if args.bench_out:
        os.makedirs(args.bench_out, exist_ok=True)
        path = os.path.join(args.bench_out, "BENCH_arena.json")
        write_bench_json(path, "arena", artifact["headroom"],
                         context=context)
        print(f"wrote {path}")
    return 0


def cmd_disasm(args) -> int:
    name = _check_benchmark(args.benchmark)
    listing = build_benchmark(name).disassemble()
    lines = listing.splitlines()
    if args.head and len(lines) > args.head:
        lines = lines[:args.head] + [f"... ({len(lines) - args.head} more lines)"]
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Difficult-path branch prediction using subordinate "
                    "microthreads (ISCA 2002) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list the synthetic benchmarks")

    run_parser = sub.add_parser("run", help="baseline vs SSMT on a benchmark")
    run_parser.add_argument("benchmark")
    _add_common(run_parser)
    run_parser.add_argument("--n", type=int, default=10)
    run_parser.add_argument("--threshold", type=float, default=0.10)
    run_parser.add_argument("--no-pruning", action="store_true")
    run_parser.add_argument("--profile-guided", action="store_true",
                            help="use the compile-time variant")
    run_parser.add_argument("--sanitize", action="store_true",
                            help="check runtime invariants (simsan); "
                                 "exits non-zero on violations")
    run_parser.add_argument("--metrics-out", metavar="PATH",
                            help="write the machine-readable telemetry "
                                 "report (JSON, or the interval-samples "
                                 "CSV when PATH ends in .csv)")
    run_parser.add_argument("--sample-every", type=int, default=2000,
                            help="interval sampler period in retired "
                                 "instructions (with --metrics-out; "
                                 "0 disables sampling)")
    _add_sample_args(run_parser)

    trace_parser = sub.add_parser(
        "trace", help="microthread lifecycle spans on a benchmark")
    trace_parser.add_argument("benchmark")
    _add_common(trace_parser)
    trace_parser.add_argument("--n", type=int, default=10)
    trace_parser.add_argument("--threshold", type=float, default=0.10)
    trace_parser.add_argument("--term-pc", type=int, default=None,
                              help="restrict tracing to this terminating "
                                   "branch PC")
    trace_parser.add_argument("--max-spans", type=int, default=10_000)
    trace_parser.add_argument("--limit", type=int, default=50,
                              help="most recent spans to print (0 = all)")
    trace_parser.add_argument("--out", metavar="PATH",
                              help="also write the full report JSON here")
    trace_parser.add_argument("--perfetto", metavar="PATH",
                              help="write a repro.obs/1 Chrome trace "
                                   "(open at https://ui.perfetto.dev)")
    trace_parser.add_argument("--flight-out", metavar="PATH",
                              help="write the misprediction flight "
                                   "recorder artifact (repro.obs.flight/1)")
    trace_parser.add_argument("--flight-window", type=int, default=64,
                              help="ring size per flight-recorder dump")

    profile_parser = sub.add_parser("profile",
                                    help="difficult-path profiling")
    profile_parser.add_argument("benchmark")
    _add_common(profile_parser)
    profile_parser.add_argument("--n", type=int, nargs="+",
                                default=[4, 10, 16])
    profile_parser.add_argument("--threshold", type=float, default=0.10)
    profile_parser.add_argument("--perf", action="store_true",
                                help="profile the simulator itself under "
                                     "cProfile instead of the workload's "
                                     "difficult paths")
    profile_parser.add_argument("--out", metavar="PATH",
                                help="with --perf: write the repro.perf/1 "
                                     "JSON artifact here")
    profile_parser.add_argument("--top", type=int, default=20,
                                help="with --perf: top functions to keep "
                                     "in the artifact")
    profile_parser.add_argument("--telemetry", action="store_true",
                                help="with --perf: attach a telemetry "
                                     "session to measure instrumented-run "
                                     "overhead")

    experiment_parser = sub.add_parser(
        "experiment", help="regenerate a paper table/figure")
    experiment_parser.add_argument(
        "which", choices=["intro", "table1", "table2", "fig6", "fig7",
                          "fig8", "fig9"])
    _add_common(experiment_parser)
    experiment_parser.add_argument("--benchmarks", nargs="*",
                                   help="subset (default: all 20)")
    experiment_parser.add_argument("--chart", action="store_true",
                                   help="also draw text bar charts")
    experiment_parser.add_argument("--json-out", metavar="DIR",
                                   help="write a BENCH_<which>.json "
                                        "artifact into DIR")
    experiment_parser.add_argument("--jobs", type=int, default=None,
                                   help="process-pool workers for the "
                                        "simulation grid (default: "
                                        "$REPRO_JOBS or serial)")
    experiment_parser.add_argument("--cache-dir", metavar="DIR",
                                   help="on-disk result cache; repeated "
                                        "runs skip completed points")

    sweep_parser = sub.add_parser(
        "sweep", help="parallel configuration sweep with result caching")
    _add_common(sweep_parser)
    sweep_parser.add_argument("--benchmarks", nargs="*",
                              help="subset (default: all 20)")
    sweep_parser.add_argument("--knob", metavar="FIELD",
                              help="SSMTConfig field to sweep (e.g. n, "
                                   "training_interval, pruning)")
    sweep_parser.add_argument("--values", nargs="*", default=[],
                              metavar="V",
                              help="settings for --knob (parsed by the "
                                   "field's type)")
    sweep_parser.add_argument("--widths", nargs="*", type=int, default=[],
                              metavar="W",
                              help="machine widths (fetch/issue/retire); "
                                   "each gets its own baseline")
    sweep_parser.add_argument("--predictor", metavar="NAME",
                              help="zoo baseline direction predictor for "
                                   "every point, e.g. tage, perceptron, "
                                   "h2p-tage (default: the paper's "
                                   "hybrid; see docs/predictors.md)")
    sweep_parser.add_argument("--jobs", type=int, default=None,
                              help="process-pool workers (default: "
                                   "$REPRO_JOBS or serial)")
    sweep_parser.add_argument("--cache-dir", metavar="DIR",
                              help="on-disk result cache keyed by task "
                                   "key; re-runs skip completed points")
    sweep_parser.add_argument("--resume", default=True,
                              action=argparse.BooleanOptionalAction,
                              help="read cached results (--no-resume "
                                   "recomputes but still writes the "
                                   "cache); entries written under a "
                                   "different CODE_SCHEMA_VERSION never "
                                   "match and are recomputed")
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="stall timeout: cancel outstanding "
                                   "points when none completes in time")
    sweep_parser.add_argument("--retries", type=int, default=1,
                              help="pool rebuilds after worker crashes "
                                   "before degrading to serial")
    sweep_parser.add_argument("--json-out", metavar="PATH",
                              help="write the merged repro.sweep/1 "
                                   "artifact here")
    sweep_parser.add_argument("--bench-out", metavar="DIR",
                              help="write a BENCH_sweep.json trajectory "
                                   "artifact into DIR")
    sweep_parser.add_argument("--trace-out", metavar="DIR",
                              help="write per-task repro.obs/1 trace "
                                   "shards plus a merged Perfetto "
                                   "timeline into DIR")
    sweep_parser.add_argument("--live", action="store_true",
                              help="echo live progress lines (heartbeats, "
                                   "stalls, pool rebuilds)")
    sweep_parser.add_argument("--heartbeat", type=float, default=5.0,
                              metavar="SECONDS",
                              help="progress heartbeat interval for "
                                   "--live / --trace-out")
    _add_sample_args(sweep_parser)

    postmortem_parser = sub.add_parser(
        "postmortem",
        help="inspect a misprediction flight-recorder artifact")
    postmortem_parser.add_argument("run",
                                   help="repro.obs.flight/1 JSON written "
                                        "by `repro trace --flight-out`")
    postmortem_parser.add_argument("--diff", metavar="PATH",
                                   help="second flight artifact to compare "
                                        "against (e.g. after a config "
                                        "change)")
    postmortem_parser.add_argument("--dumps", type=int, default=4,
                                   help="dumps to render (0 = all)")
    postmortem_parser.add_argument("--events", type=int, default=8,
                                   help="ring-tail events to show per dump")

    arena_parser = sub.add_parser(
        "arena",
        help="predictor arena: SSMT headroom vs. baseline strength "
             "across the zoo (see docs/predictors.md)")
    _add_common(arena_parser)
    arena_parser.add_argument("--benchmarks", nargs="*",
                              help="subset (default: all 20)")
    arena_parser.add_argument("--predictors", nargs="*", metavar="NAME",
                              help="zoo baselines to race (default: all "
                                   "registered arena baselines)")
    arena_parser.add_argument("--jobs", type=int, default=None,
                              help="process-pool workers (default: "
                                   "$REPRO_JOBS or serial)")
    arena_parser.add_argument("--cache-dir", metavar="DIR",
                              help="on-disk result cache; re-runs skip "
                                   "completed points")
    arena_parser.add_argument("--resume", default=True,
                              action=argparse.BooleanOptionalAction,
                              help="read cached results (--no-resume "
                                   "recomputes but still writes the "
                                   "cache); entries written under a "
                                   "different CODE_SCHEMA_VERSION never "
                                   "match and are recomputed")
    arena_parser.add_argument("--json-out", metavar="PATH",
                              help="write the repro.arena/1 artifact here")
    arena_parser.add_argument("--bench-out", metavar="DIR",
                              help="write a BENCH_arena.json trajectory "
                                   "artifact into DIR")
    _add_sample_args(arena_parser)

    disasm_parser = sub.add_parser("disasm", help="disassemble a benchmark")
    disasm_parser.add_argument("benchmark")
    disasm_parser.add_argument("--head", type=int, default=80)

    verify_parser = sub.add_parser(
        "verify",
        help="statically verify every microthread built over the suite")
    verify_parser.add_argument("benchmarks", nargs="*",
                               help="subset (default: all 20)")
    verify_parser.add_argument("--instructions", type=int,
                               default=DEFAULT_VERIFY_LENGTH,
                               help="dynamic instructions per benchmark")
    verify_parser.add_argument("--n", type=int, default=10)
    verify_parser.add_argument("--threshold", type=float, default=0.10)
    verify_parser.add_argument("--sanitize", action="store_true",
                               help="also run the runtime invariant "
                                    "sanitizer (simsan)")
    verify_parser.add_argument("--max-reports", type=int, default=10,
                               help="failing routines to detail per "
                                    "benchmark")
    verify_parser.add_argument("--rules", action="store_true",
                               help="list every rule id and exit")

    lint_parser = sub.add_parser(
        "lint",
        help="AST-based determinism / hot-path / schema-governance "
             "analysis of the codebase (see docs/lint.md)")
    default_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    lint_parser.add_argument("--root", default=default_root,
                             metavar="DIR",
                             help="repo root to lint (default: the "
                                  "checkout this package lives in)")
    lint_parser.add_argument("--format", choices=["text", "json"],
                             default="text",
                             help="report format (json carries the "
                                  "repro.lint/1 schema)")
    lint_parser.add_argument("--select", nargs="*", metavar="RULE",
                             help="restrict to these rule ids")
    lint_parser.add_argument("--baseline", metavar="PATH",
                             help="suppression baseline (default: "
                                  "<root>/lint-baseline.json)")
    lint_parser.add_argument("--rules", action="store_true",
                             help="list every lint rule id and exit")

    report_parser = sub.add_parser(
        "report", help="generate the full markdown experiment report")
    _add_common(report_parser)
    report_parser.add_argument("--benchmarks", nargs="*")
    report_parser.add_argument("--output", default="-",
                               help="output file ('-' = stdout)")

    serve_parser = sub.add_parser(
        "serve",
        help="run the sweep service: HTTP API + journaled job queue "
             "over the parallel runner (see docs/service.md)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address")
    serve_parser.add_argument("--port", type=int, default=8752,
                              help="TCP port (0 picks a free one)")
    serve_parser.add_argument("--queue-dir", default=".repro-serve",
                              metavar="DIR",
                              help="job-queue state directory; holds the "
                                   "repro.serve.job/1 journal the server "
                                   "resumes from after a crash")
    serve_parser.add_argument("--store", metavar="SPEC", default=None,
                              help="result-store backend: a directory "
                                   "path (disk cache, shared with repro "
                                   "sweep --cache-dir) or 'mem://' "
                                   "(default: <queue-dir>/store)")
    serve_parser.add_argument("--jobs", type=int, default=None,
                              help="process-pool workers per shard "
                                   "(default: $REPRO_JOBS or serial)")
    serve_parser.add_argument("--shard-size", type=int, default=8,
                              metavar="N",
                              help="tasks per scheduler turn; smaller "
                                   "shards interleave tenants more "
                                   "fairly")
    serve_parser.add_argument("--heartbeat", type=float, default=2.0,
                              metavar="SECONDS",
                              help="event-stream heartbeat interval")
    serve_parser.add_argument("--max-instructions", type=int, default=None,
                              metavar="N",
                              help="reject grids whose per-point budget "
                                   "exceeds N (default: no cap)")
    serve_parser.add_argument("--resume", default=True,
                              action=argparse.BooleanOptionalAction,
                              help="serve stored results as cache hits "
                                   "(--no-resume recomputes but still "
                                   "writes); entries written under a "
                                   "different CODE_SCHEMA_VERSION never "
                                   "match and are recomputed")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-shard stall timeout (as repro "
                                   "sweep --timeout)")
    serve_parser.add_argument("--retries", type=int, default=1,
                              help="pool rebuilds after worker crashes "
                                   "before degrading to serial")

    return parser


def cmd_report(args) -> int:
    from repro.analysis.summary import generate_report

    benchmarks = tuple(args.benchmarks) if args.benchmarks else None
    if benchmarks:
        for name in benchmarks:
            _check_benchmark(name)
    report = generate_report(benchmarks, trace_length=args.instructions)
    if args.output == "-":
        print(report)
    else:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    return 0


def cmd_serve(args) -> int:
    """Run the sweep service HTTP server (see docs/service.md)."""
    # Deferred import: only `repro serve` ever loads repro.serve
    # (tests/test_serve_zero_cost pins the default path).
    from repro.serve import ServiceConfig, SweepService, make_store
    from repro.serve.http import run_server

    store_spec = args.store or os.path.join(args.queue_dir, "store")
    store = make_store(store_spec)
    config = ServiceConfig(jobs=args.jobs, shard_size=args.shard_size,
                           heartbeat=args.heartbeat,
                           max_instructions=args.max_instructions,
                           resume=args.resume, task_timeout=args.timeout,
                           max_retries=args.retries)
    service = SweepService(args.queue_dir, store, config)
    if service.queue.recovered_tasks:
        print(f"repro serve: recovered "
              f"{service.queue.recovered_tasks} interrupted task(s) "
              f"from the journal; resuming", flush=True)
    run_server(service, args.host, args.port)
    return 0


_COMMANDS = {
    "suite": cmd_suite,
    "run": cmd_run,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "experiment": cmd_experiment,
    "sweep": cmd_sweep,
    "postmortem": cmd_postmortem,
    "arena": cmd_arena,
    "disasm": cmd_disasm,
    "report": cmd_report,
    "verify": cmd_verify,
    "lint": cmd_lint,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
