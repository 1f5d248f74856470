"""Rule catalog, scopes, and the :class:`Finding` record.

Rule ids are ``LINT0xx``, registered into the shared rule namespace of
:mod:`repro.verify.diagnostics` (the ``MT*``/``SAN*`` plumbing), so ids
stay globally unique and every family is enumerable by the docs checks.

Three families:

* **determinism** (LINT001-005) — modules that feed task keys, worker
  payloads, or canonical JSON must not read ambient state (RNG, clock,
  environment) or depend on unordered iteration;
* **hot-path discipline** (LINT010-013) — the per-retire simulator core
  and the fused timing loop (:mod:`repro.kernel`) keep the shapes the
  profile-guided pass established;
* **schema governance** (LINT020-021) — versioned artifact markers come
  from :data:`repro.schemas.SCHEMA_REGISTRY` and are documented.

LINT030/031 govern the suppression baseline itself: every entry needs a
justification, and entries that no longer match anything are reported so
the baseline cannot silently rot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.verify.diagnostics import Severity, register_rules

#: Registry of every lint rule id, for docs and ``repro lint --rules``.
LINT_RULES: Dict[str, str] = {
    # -- determinism ------------------------------------------------------
    "LINT001": "unseeded-rng: process-global or unseeded RNG use "
               "(random module functions, random.Random(), numpy.random.*) "
               "in a determinism-scoped module",
    "LINT002": "time-dependence: wall-clock or monotonic-clock read "
               "(time.*, datetime.now/today) in a determinism-scoped "
               "module",
    "LINT003": "ambient-input: environment or entropy read (os.environ, "
               "os.getenv, os.urandom, secrets, uuid1/uuid4) in a "
               "determinism-scoped module",
    "LINT004": "set-iteration-order: iterating a set (or materialising "
               "one into a sequence) without sorted() in a "
               "determinism-scoped module",
    "LINT005": "unsorted-json: json.dump/json.dumps without "
               "sort_keys=True in a determinism-scoped module",
    # -- hot-path discipline ----------------------------------------------
    "LINT010": "missing-slots: a non-dataclass class in a designated hot "
               "module does not declare __slots__",
    "LINT011": "unfused-predictor: a call site invokes .predict() and "
               ".update() on the same receiver instead of the fused "
               "predict_and_update()",
    "LINT012": "unguarded-hook: a telemetry/sanitizer/event-log/verifier "
               "hook call in a hot module is not behind an "
               "'is not None' fast-path guard",
    "LINT013": "stats-base: a *Stats class does not derive StatsBase "
               "(uniform as_dict()/snapshot() export surface)",
    # -- schema governance ------------------------------------------------
    "LINT020": "unregistered-schema: a 'repro.*/N' schema marker literal "
               "is not in repro.schemas.SCHEMA_REGISTRY (import it via "
               "schema_string() instead)",
    "LINT021": "undocumented-schema: a registered schema marker is not "
               "mentioned anywhere in README.md or docs/",
    # -- baseline governance ----------------------------------------------
    "LINT030": "stale-baseline: a suppression baseline entry no longer "
               "matches any finding; delete it",
    "LINT031": "invalid-baseline: a suppression baseline entry is "
               "malformed or missing its justification",
}

register_rules("LINT", LINT_RULES)

#: Severity per rule; everything not listed here is an ERROR.
RULE_SEVERITY: Dict[str, Severity] = {
    "LINT030": Severity.WARNING,
}


def severity_of(rule: str) -> Severity:
    return RULE_SEVERITY.get(rule, Severity.ERROR)


# -- scopes ---------------------------------------------------------------

#: Determinism-scoped packages: everything feeding task keys, worker
#: payloads, or canonical JSON (rules LINT001-005).
DETERMINISM_MODULES: Tuple[str, ...] = (
    "repro.parallel", "repro.sim", "repro.workloads",
)

#: Designated hot modules: the per-retire core and the fused timing
#: loop (rules LINT010 and LINT012).
HOT_MODULES: Tuple[str, ...] = (
    "repro.core.ssmt", "repro.core.prb", "repro.core.path", "repro.kernel",
)

#: Where the fused predict/update discipline applies (rule LINT011).
FUSED_SCOPE: Tuple[str, ...] = (
    "repro.branch", "repro.core", "repro.kernel", "repro.uarch",
)

#: Engine attributes that are observability hooks with an is-None
#: fast path (rule LINT012).
HOOK_ATTRS: Tuple[str, ...] = (
    "telemetry", "sanitizer", "event_log", "verifier",
    "_telemetry_retire", "_telemetry_control",
)


def in_scope(module: str, scopes: Tuple[str, ...]) -> bool:
    """Whether dotted ``module`` is one of, or nested under, ``scopes``."""
    return any(module == s or module.startswith(s + ".") for s in scopes)


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a file/line/symbol."""

    rule: str                 # stable id, e.g. "LINT001"
    severity: Severity
    path: str                 # repo-relative posix path
    line: int                 # 1-based; 0 for repo-level findings
    symbol: str               # enclosing Class.method, or "<module>"
    message: str
    hint: str = ""

    def format(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        text = (f"{loc}: {self.rule} {self.severity.name} "
                f"[{self.symbol}] {self.message}")
        if self.hint:
            text += f" (hint: {self.hint})"
        return text
