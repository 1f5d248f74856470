"""The lint driver: walk ``src/repro``, run every checker, gate, report.

:class:`LintEngine` is what ``repro lint`` and the tests drive.  It is
deliberately filesystem-rooted (no imports of the analysed modules —
everything is AST-level), so linting cannot be perturbed by import-time
side effects and works on trees that do not import cleanly.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from repro.lint.astutil import ModuleContext
from repro.lint.baseline import BASELINE_NAME, apply_baseline, load_baseline
from repro.lint.determinism import check_determinism
from repro.lint.hotpath import check_hotpath
from repro.lint.report import LintReport
from repro.lint.rules import Finding
from repro.lint.schema import check_schema_docs, check_schema_literals

#: Per-module checkers, in reporting-family order.
MODULE_CHECKS = (check_determinism, check_hotpath, check_schema_literals)


def analyze_source(source: str, module: str,
                   path: Optional[str] = None) -> List[Finding]:
    """Run the per-module checkers on one source string (test entry)."""
    ctx = ModuleContext(module=module,
                        path=path or module.replace(".", "/") + ".py",
                        source=source)
    findings: List[Finding] = []
    for check in MODULE_CHECKS:
        findings.extend(check(ctx))
    return findings


class LintEngine:
    """One configured lint run over a repo checkout."""

    def __init__(self, repo_root: str,
                 baseline_path: Optional[str] = None,
                 rules: Optional[Sequence[str]] = None):
        self.repo_root = os.path.abspath(repo_root)
        self.src_root = os.path.join(self.repo_root, "src")
        self.baseline_path = baseline_path or os.path.join(
            self.repo_root, BASELINE_NAME)
        self.rules = tuple(rules) if rules else None

    # -- enumeration ------------------------------------------------------

    def source_files(self) -> List[str]:
        """``src``-relative posix paths of every linted module."""
        package_root = os.path.join(self.src_root, "repro")
        out: List[str] = []
        for dirpath, dirnames, filenames in os.walk(package_root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    rel = os.path.relpath(os.path.join(dirpath, name),
                                          self.src_root)
                    out.append(rel.replace(os.sep, "/"))
        return out

    @staticmethod
    def module_name(rel_path: str) -> str:
        parts = rel_path[:-3].split("/")  # strip ".py"
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # -- the run ----------------------------------------------------------

    def run(self) -> LintReport:
        raw: List[Finding] = []
        files = self.source_files()
        for rel in files:
            path = os.path.join(self.src_root, *rel.split("/"))
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            ctx = ModuleContext(module=self.module_name(rel),
                                path="src/" + rel, source=source)
            for check in MODULE_CHECKS:
                raw.extend(check(ctx))
        raw.extend(check_schema_docs(self.repo_root))
        raw = self._filter_rules(raw)

        entries, baseline_errors = load_baseline(self.baseline_path)
        baseline_rel = os.path.relpath(self.baseline_path, self.repo_root)
        kept, suppressed = apply_baseline(raw, entries, baseline_rel)
        kept.extend(baseline_errors)
        # Filter last so a --select run doesn't misread unrelated
        # baseline entries as stale (LINT030) or resurface their errors.
        return LintReport(findings=self._filter_rules(kept),
                          suppressed=suppressed,
                          files_checked=len(files))

    def _filter_rules(self, findings: Iterable[Finding]) -> List[Finding]:
        if self.rules is None:
            return list(findings)
        return [f for f in findings if f.rule in self.rules]
