"""Hot-path discipline rules LINT010-013.

PR 5 bought ~2.1x simulator throughput with a specific set of shapes:
``__slots__`` on per-entry classes, one fused ``predict_and_update``
call per retired branch, observability hooks dispatched behind a single
``is not None`` test, and uniform ``*Stats`` export through
``StatsBase``.  These rules keep refactors (the batched kernel, the
engine-kernel extraction) from quietly regressing those shapes.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.astutil import (
    ModuleContext,
    base_names,
    decorator_names,
    receiver_key,
    walk_function_body,
)
from repro.lint.rules import (
    FUSED_SCOPE,
    HOOK_ATTRS,
    HOT_MODULES,
    Finding,
    in_scope,
    severity_of,
)

#: Base classes whose subclasses have no use for ``__slots__``.
_SLOTS_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "Flag", "IntFlag", "StrEnum", "Protocol",
    "NamedTuple", "TypedDict", "Exception", "BaseException",
})

#: Implementations of the predictor interface itself are allowed to call
#: the unfused halves (the default fused method is defined in terms of
#: them); the discipline binds *consumers* such as the retire loop.
_FUSED_EXEMPT_FUNCTIONS = frozenset({
    "predict", "update", "predict_and_update",
})


def _finding(ctx: ModuleContext, rule: str, node: ast.AST, message: str,
             hint: str = "") -> Finding:
    return Finding(rule=rule, severity=severity_of(rule), path=ctx.path,
                   line=getattr(node, "lineno", 0),
                   symbol=ctx.symbol_of(node), message=message, hint=hint)


# -- LINT010: __slots__ in hot modules ------------------------------------

def check_slots(ctx: ModuleContext) -> List[Finding]:
    if not in_scope(ctx.module, HOT_MODULES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "dataclass" in decorator_names(node):
            continue  # dataclasses stay dict-backed for 3.9 compat
        bases = set(base_names(node))
        if bases & _SLOTS_EXEMPT_BASES or node.name.endswith(
                ("Error", "Exception")):
            continue
        if not _declares_slots(node):
            findings.append(_finding(
                ctx, "LINT010", node,
                f"class {node.name} in hot module {ctx.module} has no "
                f"__slots__",
                "per-instance dicts cost memory and attribute-lookup "
                "time on the retire path; declare __slots__"))
    return findings


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"):
                return True
    return False


# -- LINT011: fused predict_and_update ------------------------------------

def check_fused_predictor(ctx: ModuleContext) -> List[Finding]:
    if not in_scope(ctx.module, FUSED_SCOPE):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in _FUSED_EXEMPT_FUNCTIONS:
            continue
        predicts: Dict[str, ast.Call] = {}
        updates: Dict[str, ast.Call] = {}
        for sub in walk_function_body(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func,
                                                        ast.Attribute):
                key = receiver_key(sub.func.value)
                if sub.func.attr == "predict":
                    predicts.setdefault(key, sub)
                elif sub.func.attr == "update":
                    updates.setdefault(key, sub)
        for key in predicts.keys() & updates.keys():
            call = updates[key]
            findings.append(_finding(
                ctx, "LINT011", call,
                f"{ctx.symbol_of(call)} calls .predict() and .update() "
                f"on the same receiver",
                "route through the fused predict_and_update() (one "
                "index computation, bit-identical by contract)"))
    return findings


# -- LINT012: is-None fast-path guards on observability hooks -------------

def check_hook_guards(ctx: ModuleContext) -> List[Finding]:
    if not in_scope(ctx.module, HOT_MODULES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_function_hooks(ctx, node))
    return findings


def _check_function_hooks(ctx: ModuleContext,
                          func: ast.AST) -> List[Finding]:
    # Aliases: ``log = self.event_log`` makes Name("log") stand for the
    # hook for the rest of the function.
    aliases: Dict[str, str] = {}
    for sub in walk_function_body(func):
        if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)):
            attr = _hook_attr(sub.value)
            if attr is not None:
                aliases[sub.targets[0].id] = attr
    findings: List[Finding] = []
    for sub in walk_function_body(func):
        if not (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)):
            continue
        attr = _hook_attr(sub.func.value, aliases)
        if attr is None:
            continue
        if func.name == "__init__":
            continue  # construction-time wiring, not the hot path
        if not _is_guarded(ctx, sub, attr, aliases):
            findings.append(_finding(
                ctx, "LINT012", sub,
                f"hook call {attr}.{sub.func.attr}() without an "
                f"'is not None' fast-path guard",
                "wrap in 'if self.%s is not None:' so the detached case "
                "costs one identity test" % attr))
    return findings


def _hook_attr(node: ast.AST,
               aliases: Optional[Dict[str, str]] = None) -> Optional[str]:
    """The hook attribute an expression refers to, if any: ``self.hook``,
    or ``engine.hook`` as the fused loop binds it."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in HOOK_ATTRS):
        return node.attr
    if aliases and isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _guard_covers(test: ast.AST, attr: str,
                  aliases: Dict[str, str]) -> bool:
    """Whether an ``if`` test establishes that the hook is attached."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_guard_covers(v, attr, aliases) for v in test.values)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if (isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            return _hook_attr(test.left, aliases) == attr
        return False
    # Bare truthiness: ``if self.telemetry:``
    return _hook_attr(test, aliases) == attr


def _is_guarded(ctx: ModuleContext, call: ast.Call, attr: str,
                aliases: Dict[str, str]) -> bool:
    # (a) an enclosing if/ternary whose test covers the hook
    child: ast.AST = call
    for anc in ctx.ancestors(call):
        if isinstance(anc, ast.If) and child is not anc.test:
            in_else = child in getattr(anc, "orelse", [])
            if not in_else and _guard_covers(anc.test, attr, aliases):
                return True
        if isinstance(anc, ast.IfExp) and child is anc.body:
            if _guard_covers(anc.test, attr, aliases):
                return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        child = anc
    # (b) an earlier early-exit guard in an enclosing block:
    #     ``if self.telemetry is None: return``
    return _early_exit_guard(ctx, call, attr, aliases)


def _early_exit_guard(ctx: ModuleContext, call: ast.Call, attr: str,
                      aliases: Dict[str, str]) -> bool:
    chain: List[ast.AST] = [call]
    for anc in ctx.ancestors(call):
        chain.append(anc)
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    for container in chain:
        body = getattr(container, "body", None)
        if not isinstance(body, list):
            continue
        inner: Set[int] = {id(n) for n in chain}
        for stmt in body:
            if id(stmt) in inner:
                break  # statements after the call's branch don't count
            if (isinstance(stmt, ast.If) and stmt.body
                    and isinstance(stmt.body[-1],
                                   (ast.Return, ast.Continue, ast.Raise))
                    and _is_none_test(stmt.test, attr, aliases)):
                return True
    return False


def _is_none_test(test: ast.AST, attr: str,
                  aliases: Dict[str, str]) -> bool:
    return (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and _hook_attr(test.left, aliases) == attr)


# -- LINT013: *Stats derive StatsBase -------------------------------------

def check_stats_base(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Stats") or node.name == "StatsBase":
            continue
        if "StatsBase" not in base_names(node):
            findings.append(_finding(
                ctx, "LINT013", node,
                f"{node.name} does not derive StatsBase",
                "StatsBase gives the uniform as_dict()/snapshot() export "
                "the telemetry registry and sweep payloads rely on"))
    return findings


def check_hotpath(ctx: ModuleContext) -> List[Finding]:
    """All hot-path rules for one module."""
    return (check_slots(ctx) + check_fused_predictor(ctx)
            + check_hook_guards(ctx) + check_stats_base(ctx))
