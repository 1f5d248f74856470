"""Per-rule positive/negative fixtures for the repro.lint analyzers."""

import json

import pytest

from repro.lint import analyze_source
from repro.lint.baseline import (
    BASELINE_SCHEMA,
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.lint.rules import LINT_RULES, Finding, in_scope, severity_of
from repro.verify.diagnostics import RULE_NAMESPACES, Severity, all_rules

DET_MOD = "repro.parallel.fake"      # in determinism scope
HOT_MOD = "repro.core.prb"           # a designated hot module
KERNEL_MOD = "repro.kernel.batched"  # the fused timing loop
FUSED_MOD = "repro.branch.fake"      # in fused-predictor scope
NEUTRAL_MOD = "repro.analysis.fake"  # in no scope


def rules_of(source, module):
    return sorted({f.rule for f in analyze_source(source, module)})


# -- LINT001: unseeded RNG -------------------------------------------------

def test_unseeded_random_constructor_flagged():
    src = "import random\nrng = random.Random()\n"
    assert rules_of(src, DET_MOD) == ["LINT001"]


def test_seeded_random_constructor_ok():
    src = "import random\nrng = random.Random(1234)\n"
    assert rules_of(src, DET_MOD) == []


def test_module_level_rng_call_flagged():
    src = "import random\nx = random.randint(0, 7)\n"
    assert rules_of(src, DET_MOD) == ["LINT001"]


def test_from_import_alias_resolved():
    src = "from random import Random as R\nrng = R()\n"
    assert rules_of(src, DET_MOD) == ["LINT001"]


def test_instance_rng_method_ok():
    src = ("import random\n"
           "class W:\n"
           "    def __init__(self, seed):\n"
           "        self.rng = random.Random(seed)\n"
           "    def draw(self):\n"
           "        return self.rng.random()\n")
    assert rules_of(src, DET_MOD) == []


def test_out_of_scope_module_not_checked():
    src = "import random\nx = random.random()\n"
    assert rules_of(src, NEUTRAL_MOD) == []


# -- LINT002: clock reads --------------------------------------------------

def test_clock_read_flagged():
    src = "import time\nstart = time.monotonic()\n"
    assert rules_of(src, DET_MOD) == ["LINT002"]


def test_datetime_now_flagged():
    src = "import datetime\nstamp = datetime.datetime.now()\n"
    assert rules_of(src, DET_MOD) == ["LINT002"]


def test_time_in_annotation_only_ok():
    src = "import time\n\ndef wait(deadline: float) -> None:\n    pass\n"
    assert rules_of(src, DET_MOD) == []


# -- LINT003: ambient input ------------------------------------------------

def test_environ_get_flagged_once():
    src = "import os\njobs = os.environ.get('JOBS', '')\n"
    findings = analyze_source(src, DET_MOD)
    assert [f.rule for f in findings] == ["LINT003"]


def test_bare_environ_read_flagged():
    src = "import os\nenv = dict(os.environ)\n"
    assert rules_of(src, DET_MOD) == ["LINT003"]


def test_os_getenv_flagged():
    src = "import os\nx = os.getenv('HOME')\n"
    assert rules_of(src, DET_MOD) == ["LINT003"]


def test_os_path_ok():
    src = "import os\np = os.path.join('a', 'b')\n"
    assert rules_of(src, DET_MOD) == []


# -- LINT004: set iteration order ------------------------------------------

def test_for_over_set_literal_flagged():
    src = "for x in {1, 2, 3}:\n    pass\n"
    assert rules_of(src, DET_MOD) == ["LINT004"]


def test_comprehension_over_set_call_flagged():
    src = "items = [x for x in set([3, 1, 2])]\n"
    assert rules_of(src, DET_MOD) == ["LINT004"]


def test_list_of_set_flagged():
    src = "items = list({1, 2})\n"
    assert rules_of(src, DET_MOD) == ["LINT004"]


def test_sorted_set_ok():
    src = "for x in sorted({1, 2, 3}):\n    pass\n"
    assert rules_of(src, DET_MOD) == []


def test_for_over_list_ok():
    src = "for x in [1, 2, 3]:\n    pass\n"
    assert rules_of(src, DET_MOD) == []


# -- LINT005: canonical JSON -----------------------------------------------

def test_dumps_without_sort_keys_flagged():
    src = "import json\nblob = json.dumps({'a': 1})\n"
    assert rules_of(src, DET_MOD) == ["LINT005"]


def test_dumps_with_sort_keys_ok():
    src = "import json\nblob = json.dumps({'a': 1}, sort_keys=True)\n"
    assert rules_of(src, DET_MOD) == []


def test_dumps_sort_keys_false_flagged():
    src = "import json\nblob = json.dumps({'a': 1}, sort_keys=False)\n"
    assert rules_of(src, DET_MOD) == ["LINT005"]


def test_json_loads_ok():
    src = "import json\nobj = json.loads('{}')\n"
    assert rules_of(src, DET_MOD) == []


# -- LINT010: __slots__ in hot modules -------------------------------------

def test_hot_class_without_slots_flagged():
    src = "class Entry:\n    def __init__(self):\n        self.x = 1\n"
    assert rules_of(src, HOT_MOD) == ["LINT010"]


def test_hot_class_with_slots_ok():
    src = ("class Entry:\n"
           "    __slots__ = ('x',)\n"
           "    def __init__(self):\n"
           "        self.x = 1\n")
    assert rules_of(src, HOT_MOD) == []


def test_dataclass_exempt_from_slots():
    src = ("from dataclasses import dataclass\n"
           "@dataclass\n"
           "class Cfg:\n"
           "    x: int = 1\n")
    assert rules_of(src, HOT_MOD) == []


def test_enum_and_exception_exempt_from_slots():
    src = ("from enum import Enum\n"
           "class Kind(Enum):\n"
           "    A = 1\n"
           "class BufferError2(Exception):\n"
           "    pass\n")
    assert rules_of(src, HOT_MOD) == []


def test_kernel_class_without_slots_flagged():
    src = "class Model:\n    def __init__(self):\n        self.x = 1\n"
    assert rules_of(src, KERNEL_MOD) == ["LINT010"]


def test_cold_module_class_without_slots_ok():
    src = "class Anything:\n    pass\n"
    assert rules_of(src, NEUTRAL_MOD) == []


# -- LINT011: fused predict_and_update -------------------------------------

def test_split_predict_update_same_receiver_flagged():
    src = ("def retire(self, pc, taken):\n"
           "    guess = self.pred.predict(pc)\n"
           "    self.pred.update(pc, taken)\n"
           "    return guess\n")
    assert rules_of(src, FUSED_MOD) == ["LINT011"]


def test_split_predict_update_in_kernel_flagged():
    src = ("def run_span(self, pc, taken):\n"
           "    guess = self.pred.predict(pc)\n"
           "    self.pred.update(pc, taken)\n"
           "    return guess\n")
    assert rules_of(src, KERNEL_MOD) == ["LINT011"]


def test_fused_call_ok():
    src = ("def retire(self, pc, taken):\n"
           "    return self.pred.predict_and_update(pc, taken)\n")
    assert rules_of(src, FUSED_MOD) == []


def test_different_receivers_ok():
    src = ("def retire(self, pc, taken):\n"
           "    guess = self.dirpred.predict(pc)\n"
           "    self.btb.update(pc, taken)\n"
           "    return guess\n")
    assert rules_of(src, FUSED_MOD) == []


def test_interface_methods_exempt_from_fusion():
    src = ("class Hybrid:\n"
           "    def predict_and_update(self, pc, taken):\n"
           "        p = self.meta.predict(pc)\n"
           "        self.meta.update(pc, taken)\n"
           "        return p\n")
    assert rules_of(src, FUSED_MOD) == []


def test_nested_function_receivers_not_conflated():
    src = ("def outer(self, pc):\n"
           "    self.pred.predict(pc)\n"
           "    def inner(taken):\n"
           "        self.pred.update(pc, taken)\n"
           "    return inner\n")
    # predict in outer, update only in the nested scope: each scope on
    # its own has no fused pair.
    assert rules_of(src, FUSED_MOD) == []


# -- LINT012: hook guards --------------------------------------------------

def test_unguarded_hook_call_flagged():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def retire(self, rec):\n"
           "        self.telemetry.observe(rec)\n")
    assert rules_of(src, HOT_MOD) == ["LINT012"]


def test_unguarded_hook_call_in_kernel_flagged():
    src = ("def run_span(self, state, rec):\n"
           "    engine = state.engine\n"
           "    engine.sanitizer.on_retire(rec)\n")
    assert rules_of(src, KERNEL_MOD) == ["LINT012"]


def test_engine_hook_alias_guard_in_kernel_ok():
    src = ("def run_span(self, state, rec):\n"
           "    engine = state.engine\n"
           "    sanitizer = engine.sanitizer\n"
           "    if sanitizer is not None:\n"
           "        sanitizer.on_retire(rec)\n")
    assert rules_of(src, KERNEL_MOD) == []


def test_is_not_none_guard_ok():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def retire(self, rec):\n"
           "        if self.telemetry is not None:\n"
           "            self.telemetry.observe(rec)\n")
    assert rules_of(src, HOT_MOD) == []


def test_early_exit_guard_ok():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def retire(self, rec):\n"
           "        if self.telemetry is None:\n"
           "            return\n"
           "        self.telemetry.observe(rec)\n")
    assert rules_of(src, HOT_MOD) == []


def test_alias_guard_ok():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def retire(self, rec):\n"
           "        log = self.event_log\n"
           "        if log is not None:\n"
           "            log.append(rec)\n")
    assert rules_of(src, HOT_MOD) == []


def test_alias_unguarded_flagged():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def retire(self, rec):\n"
           "        log = self.event_log\n"
           "        log.append(rec)\n")
    assert rules_of(src, HOT_MOD) == ["LINT012"]


def test_guard_in_else_branch_flagged():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def retire(self, rec):\n"
           "        if self.telemetry is not None:\n"
           "            pass\n"
           "        else:\n"
           "            self.telemetry.observe(rec)\n")
    assert rules_of(src, HOT_MOD) == ["LINT012"]


def test_init_wiring_exempt():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def __init__(self, telemetry):\n"
           "        self.telemetry = telemetry\n"
           "        self.telemetry.attach(self)\n")
    assert rules_of(src, HOT_MOD) == []


def test_non_hook_attr_ok():
    src = ("class Engine:\n"
           "    __slots__ = ('telemetry', 'event_log', 'prb')\n"
           "    def retire(self, rec):\n"
           "        self.prb.insert(rec)\n")
    assert rules_of(src, HOT_MOD) == []


# -- LINT013: *Stats derive StatsBase --------------------------------------

def test_stats_class_without_base_flagged():
    src = "class SpawnStats:\n    pass\n"
    assert rules_of(src, NEUTRAL_MOD) == ["LINT013"]


def test_stats_class_with_base_ok():
    src = ("from repro.telemetry.registry import StatsBase\n"
           "class SpawnStats(StatsBase):\n"
           "    pass\n")
    assert rules_of(src, NEUTRAL_MOD) == []


# -- LINT020: schema markers -----------------------------------------------

def test_unregistered_marker_flagged():
    src = "SCHEMA = 'repro.mystery/7'\n"
    assert rules_of(src, NEUTRAL_MOD) == ["LINT020"]


def test_registered_marker_ok():
    src = "SCHEMA = 'repro.telemetry/1'\n"
    assert rules_of(src, NEUTRAL_MOD) == []


def test_non_marker_string_ok():
    src = "DOC = 'see repro.telemetry for details'\n"
    assert rules_of(src, NEUTRAL_MOD) == []


# -- catalog & shared namespace --------------------------------------------

def test_every_rule_has_catalog_entry_and_severity():
    for rule in LINT_RULES:
        assert rule.startswith("LINT")
        assert severity_of(rule) in (Severity.WARNING, Severity.ERROR)


def test_lint_family_registered_in_shared_namespace():
    assert "LINT" in RULE_NAMESPACES
    assert RULE_NAMESPACES["LINT"] == LINT_RULES
    merged = all_rules()
    assert set(LINT_RULES) <= set(merged)
    # MT/SAN families still present alongside
    assert any(r.startswith("MT") for r in merged)


def test_in_scope_is_prefix_not_substring():
    assert in_scope("repro.core.path", ("repro.core.path",))
    assert in_scope("repro.core.path.sub", ("repro.core.path",))
    assert not in_scope("repro.core.path_cache", ("repro.core.path",))


# -- baseline (LINT030/031) ------------------------------------------------

def _finding(rule="LINT010", path="src/x.py", symbol="C"):
    return Finding(rule=rule, severity=severity_of(rule), path=path,
                   line=3, symbol=symbol, message="m")


def test_baseline_suppresses_matching_finding():
    entry = BaselineEntry("LINT010", "src/x.py", "C", "intentional")
    kept, suppressed = apply_baseline([_finding()], [entry], "b.json")
    assert kept == [] and len(suppressed) == 1


def test_stale_baseline_entry_reported():
    entry = BaselineEntry("LINT010", "src/gone.py", "C", "old reason")
    kept, suppressed = apply_baseline([_finding()], [entry], "b.json")
    assert suppressed == []
    rules = sorted(f.rule for f in kept)
    assert rules == ["LINT010", "LINT030"]
    assert severity_of("LINT030") == Severity.WARNING


def test_baseline_entry_without_justification_rejected(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({
        "schema": BASELINE_SCHEMA,
        "entries": [{"rule": "LINT010", "path": "src/x.py", "symbol": "C"}],
    }))
    entries, findings = load_baseline(str(path))
    assert entries == []
    assert [f.rule for f in findings] == ["LINT031"]


def test_baseline_wrong_schema_rejected(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"schema": "repro.other/1", "entries": []}))
    entries, findings = load_baseline(str(path))
    assert entries == []
    assert [f.rule for f in findings] == ["LINT031"]


def test_missing_baseline_is_fine(tmp_path):
    entries, findings = load_baseline(str(tmp_path / "absent.json"))
    assert entries == [] and findings == []


# -- finding formatting ----------------------------------------------------

def test_finding_format_is_anchored():
    f = Finding(rule="LINT001", severity=Severity.ERROR, path="src/a.py",
                line=12, symbol="W.draw", message="boom", hint="seed it")
    text = f.format()
    assert text.startswith("src/a.py:12: LINT001 ERROR [W.draw] boom")
    assert "seed it" in text


def test_repo_level_finding_has_no_line():
    f = Finding(rule="LINT021", severity=Severity.ERROR,
                path="docs/lint.md", line=0, symbol="<docs>",
                message="undocumented")
    assert f.format().startswith("docs/lint.md: LINT021")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
