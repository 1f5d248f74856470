"""repro.lint — AST-based determinism & hot-path invariant analyzer.

Three rule families guard the contracts earlier PRs established:

* determinism (LINT001-005): modules feeding task keys and payloads
  must not read ambient state or depend on unordered iteration;
* hot-path discipline (LINT010-013): the per-retire simulator core and
  the fused timing loop keep their ``__slots__`` / fused-predictor /
  guarded-hook shapes;
* schema governance (LINT020-021): artifact markers come from
  :data:`repro.schemas.SCHEMA_REGISTRY`, and every registered marker is
  documented.

Payloads are guarded by the pinned corpora instead
(``tests/test_taskkey_corpus.py``, ``tests/test_consumer_corpus.py``),
keyed by ``CODE_SCHEMA_VERSION``.

Entry points: the ``repro lint`` CLI subcommand, or programmatically
:class:`~repro.lint.engine.LintEngine` /
:func:`~repro.lint.engine.analyze_source`.  See ``docs/lint.md``.
"""

from repro.lint.baseline import BASELINE_NAME, BaselineEntry, load_baseline
from repro.lint.engine import LintEngine, analyze_source
from repro.lint.report import LintReport
from repro.lint.rules import LINT_RULES, Finding, severity_of

__all__ = [
    "BASELINE_NAME",
    "BaselineEntry",
    "Finding",
    "LINT_RULES",
    "LintEngine",
    "LintReport",
    "analyze_source",
    "load_baseline",
    "severity_of",
]
