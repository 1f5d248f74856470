"""The repo lints itself: end-to-end runs of the LintEngine and CLI.

These are the dogfood tests the CI ``lint-invariants`` job mirrors: the
checked-in tree must be clean (modulo the justified baseline).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import LINT_RULES, LintEngine
from repro.lint.report import REPORT_SCHEMA
from repro.schemas import (
    CODE_SCHEMA_VERSION,
    SCHEMA_REGISTRY,
    is_registered,
    owning_module,
    parse_schema_string,
    registered_markers,
    schema_string,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_repo_lints_clean():
    report = LintEngine(REPO_ROOT).run()
    assert report.ok(), "\n" + report.to_text()


def test_baseline_entries_all_used_and_justified():
    report = LintEngine(REPO_ROOT).run()
    assert not any(f.rule in ("LINT030", "LINT031")
                   for f in report.findings), "\n" + report.to_text()
    assert report.suppressed, "expected justified baseline suppressions"


def test_every_lint_rule_documented():
    with open(os.path.join(REPO_ROOT, "docs", "lint.md")) as handle:
        doc = handle.read()
    missing = [rule for rule in LINT_RULES if rule not in doc]
    assert not missing, f"rules missing from docs/lint.md: {missing}"


def test_json_report_shape():
    report = LintEngine(REPO_ROOT).run().to_dict()
    assert report["schema"] == REPORT_SCHEMA
    assert report["code_schema_version"] == CODE_SCHEMA_VERSION
    assert report["counts"]["error"] == 0
    assert report["files_checked"] > 50


# -- schema registry (repro.schemas / taskkey re-export) -------------------

def test_registry_markers_roundtrip():
    for marker in registered_markers():
        name, version = parse_schema_string(marker)
        assert schema_string(name, version) == marker
        assert is_registered(marker)
        assert owning_module(marker).startswith("repro.")


def test_unregistered_schema_raises():
    with pytest.raises(KeyError):
        schema_string("repro.nonexistent", 1)
    assert not is_registered("repro.nonexistent/1")


def test_taskkey_reexports_registry():
    from repro.parallel import taskkey

    assert taskkey.SCHEMA_REGISTRY is SCHEMA_REGISTRY
    assert taskkey.CODE_SCHEMA_VERSION == CODE_SCHEMA_VERSION


def test_artifact_schemas_come_from_registry():
    from repro.parallel.cache import POINT_SCHEMA
    from repro.parallel.sweep import SWEEP_SCHEMA
    from repro.perf.harness import SCHEMA as PERF_SCHEMA
    from repro.telemetry.report import BENCH_SCHEMA, SCHEMA as REPORT

    assert REPORT == schema_string("repro.telemetry", 1)
    assert BENCH_SCHEMA == schema_string("repro.bench", 1)
    assert POINT_SCHEMA == schema_string("repro.sweep.point", 1)
    assert SWEEP_SCHEMA == schema_string("repro.sweep", 1)
    assert PERF_SCHEMA == schema_string("repro.perf", 1)


# -- CLI surface -----------------------------------------------------------

def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)


def test_cli_json_clean_run():
    proc = _run_cli("--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["schema"] == REPORT_SCHEMA
    assert payload["counts"]["error"] == 0


def test_cli_rules_listing():
    proc = _run_cli("--rules")
    assert proc.returncode == 0
    for rule in LINT_RULES:
        assert rule in proc.stdout


def test_cli_select_filters_rules():
    proc = _run_cli("--select", "LINT020", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["suppressed"] == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
