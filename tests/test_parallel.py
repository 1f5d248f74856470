"""Tests for the parallel sweep runner, task keys, and result cache.

The correctness contract under test: serial, parallel, and cached
executions of the same grid produce bit-identical per-point payloads,
and the on-disk cache makes repeated sweeps free (simulated=0).
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.cli import main
from repro.core.oracle import PotentialConfig
from repro.core.ssmt import SSMTConfig
from repro.parallel import (
    CODE_SCHEMA_VERSION,
    POINT_SCHEMA,
    ResultCache,
    SweepRunner,
    SweepTask,
    build_grid,
    canonical_json,
    default_jobs,
    merge_sweep,
    parse_knob_value,
    run_task,
    task_key,
)

SHORT = 3000


def t(**overrides):
    defaults = dict(kind="ssmt", benchmark="comp", instructions=SHORT)
    defaults.update(overrides)
    return SweepTask(**defaults)


# -- module-level workers (must be picklable for the process pool) ------------


def _crashy_worker(task):
    """Dies hard inside pool workers; behaves normally in the parent, so
    the runner's serial fallback can finish the sweep."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return run_task(task)


def _sleepy_worker(task):
    time.sleep(5.0)
    return run_task(task)


def _failing_worker(task):
    raise ValueError(f"cannot simulate {task.benchmark}")


# -- task keys ----------------------------------------------------------------


class TestTaskKey:
    def test_stable_across_instances(self):
        assert t().key == t().key
        assert task_key(t()) == t().key

    def test_key_is_hex_sha256(self):
        key = t().key
        assert len(key) == 64
        int(key, 16)

    def test_differs_by_benchmark_kind_length_config(self):
        keys = {
            t().key,
            t(benchmark="gcc").key,
            t(kind="baseline", config=None).key,
            t(instructions=SHORT + 1).key,
            t(config=SSMTConfig(n=4)).key,
            t(kind="potential", config=None,
              potential=PotentialConfig(n=4)).key,
        }
        assert len(keys) == 6

    def test_label_excluded_from_key(self):
        assert t(label="a").key == t(label="b").key

    def test_identity_embeds_schema_version(self):
        assert t().identity()["schema_version"] == CODE_SCHEMA_VERSION

    def test_canonical_json_sorts_keys(self):
        assert (canonical_json({"b": 1, "a": 2})
                == canonical_json({"a": 2, "b": 1}))

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            t(kind="bogus")

    def test_invalid_instructions_rejected(self):
        with pytest.raises(ValueError):
            t(instructions=0)

    def test_predictor_is_part_of_the_key(self):
        from repro.branch.zoo import small_config

        default = t()
        tage = t(predictor=small_config("tage"))
        perceptron = t(predictor=small_config("perceptron"))
        assert default.identity()["predictor"] is None
        assert tage.identity()["predictor"]["scheme"] == "tage"
        assert len({default.key, tage.key, perceptron.key}) == 3
        assert t(predictor=small_config("tage")).key == tage.key

    def test_oracle_normalises_predictor_to_none(self):
        """Oracle prediction ignores the hardware predictor, so oracle
        points share one cache entry across all arena baselines."""
        from repro.branch.zoo import small_config

        plain = t(kind="oracle", config=None)
        zoo = t(kind="oracle", config=None,
                predictor=small_config("tage"))
        assert zoo.predictor is None
        assert zoo.key == plain.key

    def test_predictor_must_be_a_config_instance(self):
        with pytest.raises(ValueError):
            t(predictor="tage")


class TestSchemaVersionMigration:
    def test_version_was_bumped_for_the_predictor_field(self):
        assert CODE_SCHEMA_VERSION >= 2

    def test_old_version_cache_entry_is_a_clean_miss(self, tmp_path,
                                                     monkeypatch):
        """An entry cached under the previous CODE_SCHEMA_VERSION is
        unreachable by construction — a plain miss, never an
        invalid/corrupt read."""
        import repro.parallel.taskkey as taskkey_mod

        task = t()
        current_key = task.key
        # A task's key is fixed at construction, so the old-version task
        # is built while the old version is in force.
        monkeypatch.setattr(taskkey_mod, "CODE_SCHEMA_VERSION",
                            CODE_SCHEMA_VERSION - 1)
        old_key = t().key
        monkeypatch.undo()
        assert old_key != current_key
        assert task.key == current_key

        cache = ResultCache(str(tmp_path))
        cache.put(old_key, {"schema": POINT_SCHEMA, "task_key": old_key,
                            "value": 1})
        assert cache.get(current_key) is None
        assert cache.misses == 1
        assert cache.invalid == 0
        # The stale entry is intact on disk, readable under its own key.
        assert cache.get(old_key)["value"] == 1


class TestParseKnobValue:
    def test_types(self):
        assert parse_knob_value("n", "16") == 16
        assert parse_knob_value("difficulty_threshold", "0.05") == 0.05
        assert parse_knob_value("pruning", "false") is False
        assert parse_knob_value("pruning", "on") is True

    def test_bad_bool(self):
        with pytest.raises(ValueError):
            parse_knob_value("pruning", "maybe")

    def test_unknown_knob(self):
        with pytest.raises(ValueError):
            parse_knob_value("bogus", "1")


# -- result cache -------------------------------------------------------------


class TestResultCache:
    def payload(self, key):
        return {"schema": POINT_SCHEMA, "task_key": key, "value": 42}

    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = t().key
        cache.put(key, self.payload(key))
        assert cache.get(key) == self.payload(key)
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(str(tmp_path)).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = t().key
        cache.put(key, self.payload(key))
        path = next(tmp_path.glob("*.json"))
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert cache.invalid == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key, other = t().key, t(benchmark="gcc").key
        cache.put(key, self.payload(key))
        # copy the entry under the wrong key (stale/foreign file)
        (tmp_path / f"{other}.json").write_text(
            (tmp_path / f"{key}.json").read_text())
        assert cache.get(other) is None

    def test_put_rejects_foreign_payload(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.put(t().key, self.payload(t(benchmark="gcc").key))


# -- the runner ---------------------------------------------------------------


GRID = [
    SweepTask(kind="baseline", benchmark="comp", instructions=SHORT),
    SweepTask(kind="ssmt", benchmark="comp", instructions=SHORT,
              label="ssmt"),
    SweepTask(kind="baseline", benchmark="gcc", instructions=SHORT),
    SweepTask(kind="ssmt", benchmark="gcc", instructions=SHORT,
              label="ssmt"),
]


class TestSweepRunner:
    def test_serial_parallel_cached_bit_identical(self, tmp_path):
        serial = SweepRunner(jobs=1).run(GRID)
        parallel = SweepRunner(jobs=2).run(GRID)
        first = SweepRunner(jobs=2, cache_dir=str(tmp_path)).run(GRID)
        cached = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(GRID)
        assert serial.results == parallel.results
        assert serial.results == first.results
        assert serial.results == cached.results
        assert serial.simulated == parallel.simulated == 4
        assert cached.simulated == 0 and cached.cache_hits == 4
        # payloads survive a JSON round-trip unchanged (true bit-identity)
        assert (json.loads(json.dumps(serial.results))
                == serial.results)

    def test_dedup_folds_equal_keys(self):
        outcome = SweepRunner(jobs=1).run([GRID[0], GRID[1], GRID[0]])
        assert outcome.deduped == 1
        assert outcome.simulated == 2
        assert outcome.results[0] == outcome.results[2]

    def test_labels_follow_the_requesting_task(self):
        a = GRID[1]
        b = SweepTask(kind="ssmt", benchmark="comp", instructions=SHORT,
                      label="other")
        outcome = SweepRunner(jobs=1).run([a, b])
        assert outcome.deduped == 1
        assert outcome.results[0]["label"] == "ssmt"
        assert outcome.results[1]["label"] == "other"

    def test_no_resume_recomputes_but_writes(self, tmp_path):
        first = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(GRID[:2])
        again = SweepRunner(jobs=1, cache_dir=str(tmp_path),
                            resume=False).run(GRID[:2])
        assert first.simulated == again.simulated == 2
        assert again.cache_hits == 0

    def test_payload_shape(self):
        outcome = SweepRunner(jobs=1).run(GRID[:2])
        base, ssmt = outcome.results
        for payload in (base, ssmt):
            assert payload["schema"] == POINT_SCHEMA
            assert payload["timing"]["instructions"] == SHORT
            assert payload["timing"]["cycles"] > 0
        assert base["metrics"] is None and base["config"] is None
        assert ssmt["metrics"]["path_cache"]["updates"] > 0
        assert ssmt["config"]["n"] == 10

    def test_worker_crash_degrades_to_serial(self):
        runner = SweepRunner(jobs=2, max_retries=1, worker=_crashy_worker)
        outcome = runner.run(GRID[:2])
        assert outcome.failures == 0
        assert outcome.retries == 2          # two pool rebuilds, then serial
        assert all(r is not None for r in outcome.results)

    def test_deterministic_failure_recorded(self):
        outcome = SweepRunner(jobs=1, worker=_failing_worker).run(GRID[:2])
        assert outcome.failures == 2
        assert outcome.results == [None, None]
        assert all("ValueError" in reason
                   for reason in outcome.errors.values())

    def test_stall_timeout_cancels_points(self):
        runner = SweepRunner(jobs=2, task_timeout=0.3,
                             worker=_sleepy_worker)
        outcome = runner.run(GRID[:2])
        assert outcome.failures == 2
        assert all("timeout" in reason
                   for reason in outcome.errors.values())

    def test_summary_line_format(self):
        outcome = SweepRunner(jobs=1).run(GRID[:1])
        line = outcome.summary_line()
        assert line.startswith("sweep: points=1 simulated=1 cache_hits=0 "
                               "deduped=0 failures=0 retries=0 jobs=1")

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert SweepRunner().jobs == 3
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert default_jobs() == 1


# -- grid + merge -------------------------------------------------------------


class TestGridAndMerge:
    def test_build_grid_shapes(self):
        tasks = build_grid(("comp", "gcc"), SHORT, knob="n", values=(4, 10),
                           widths=(4, 8))
        # per width: 2 baselines + 2 settings x 2 benchmarks
        assert len(tasks) == 2 * (2 + 4)
        labels = {task.label for task in tasks}
        assert "baseline|w=4" in labels and "n=10|w=8" in labels

    def test_merge_attaches_speedups_and_aggregates(self):
        outcome = SweepRunner(jobs=1).run(GRID)
        merged = merge_sweep(outcome.results, context={"note": "test"})
        assert merged["schema"] == "repro.sweep/1"
        assert merged["context"] == {"note": "test"}
        ssmt_points = [p for p in merged["points"] if p["kind"] == "ssmt"]
        assert all("speedup" in p for p in ssmt_points)
        agg = merged["aggregates"]["ssmt"]
        assert set(agg["per_benchmark"]) == {"comp", "gcc"}
        assert agg["mean_speedup"] > 0.5

    def test_build_grid_predictor_threads_through(self):
        from repro.branch.zoo import small_config

        config = small_config("tage")
        tasks = build_grid(("comp",), SHORT, predictor=config)
        assert all(task.predictor == config for task in tasks)
        default = build_grid(("comp",), SHORT)
        assert all(task.predictor is None for task in default)
        assert {task.key for task in tasks}.isdisjoint(
            {task.key for task in default})

    def test_merge_without_baseline_has_no_speedup(self):
        outcome = SweepRunner(jobs=1).run([GRID[1]])
        merged = merge_sweep(outcome.results)
        assert "speedup" not in merged["points"][0]
        assert merged["aggregates"] == {}


# -- CLI ----------------------------------------------------------------------


class TestSweepCLI:
    ARGS = ["sweep", "--benchmarks", "comp", "--instructions", str(SHORT),
            "--knob", "n", "--values", "4", "10", "--jobs", "2"]

    def test_repeated_run_hits_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert main(self.ARGS + ["--cache-dir", cache_dir,
                                 "--json-out", out_a]) == 0
        first = capsys.readouterr().out
        assert "simulated=3" in first and "cache_hits=0" in first
        assert main(self.ARGS + ["--cache-dir", cache_dir,
                                 "--json-out", out_b]) == 0
        second = capsys.readouterr().out
        assert "simulated=0" in second and "cache_hits=3" in second
        with open(out_a) as a, open(out_b) as b:
            assert json.load(a)["points"] == json.load(b)["points"]

    def test_bench_out_artifact(self, tmp_path, capsys):
        bench_dir = str(tmp_path)
        assert main(self.ARGS + ["--bench-out", bench_dir]) == 0
        capsys.readouterr()
        with open(os.path.join(bench_dir, "BENCH_sweep.json")) as handle:
            artifact = json.load(handle)
        assert artifact["schema"] == "repro.bench/1"
        assert "n=4" in artifact["results"]

    def test_values_require_knob(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--values", "4"])

    def test_predictor_flag_runs_zoo_baseline(self, capsys):
        assert main(["sweep", "--benchmarks", "comp", "--instructions",
                     "2000", "--predictor", "tage"]) == 0
        assert "simulated=2" in capsys.readouterr().out

    def test_unknown_predictor_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks", "comp", "--instructions",
                  "2000", "--predictor", "mystery-meat"])


# -- the foreign-version resume warning -----------------------------------


WARNING_MARKER = "no entry matched this grid"
SWEEP_ARGS = ["sweep", "--benchmarks", "comp", "--instructions", "1000",
              "--jobs", "1"]


def _plant_foreign_entry(cache_dir):
    """A structurally valid point whose key no current grid produces —
    exactly what a pre-CODE_SCHEMA_VERSION-bump cache looks like."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = "f" * 64
    entry = {"schema": POINT_SCHEMA, "task_key": key, "kind": "baseline",
             "label": "stale", "benchmark": "comp", "instructions": 1000}
    (cache_dir / f"{key}.json").write_text(
        json.dumps(entry, sort_keys=True))


def test_resume_warns_when_only_foreign_entries_match_nothing(
        tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    _plant_foreign_entry(cache_dir)
    assert main(SWEEP_ARGS + ["--cache-dir", str(cache_dir)]) == 0
    captured = capsys.readouterr()
    assert WARNING_MARKER in captured.err
    assert "CODE_SCHEMA_VERSION" in captured.err


def test_no_warning_on_empty_cache(tmp_path, capsys):
    assert main(SWEEP_ARGS + ["--cache-dir",
                              str(tmp_path / "cache")]) == 0
    assert WARNING_MARKER not in capsys.readouterr().err


def test_no_warning_when_cache_hits(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(SWEEP_ARGS + ["--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(SWEEP_ARGS + ["--cache-dir", cache_dir]) == 0
    captured = capsys.readouterr()
    assert "cache_hits=2" in captured.out
    assert WARNING_MARKER not in captured.err


def test_no_warning_without_resume(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    _plant_foreign_entry(cache_dir)
    assert main(SWEEP_ARGS + ["--cache-dir", str(cache_dir),
                              "--no-resume"]) == 0
    assert WARNING_MARKER not in capsys.readouterr().err