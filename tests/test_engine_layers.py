"""Layering of the SSMT engine and the timing loop, checked on the AST.

The engine's variants (the Figure-6 oracle, a prebuilt MicroRAM image)
are data that the one :class:`~repro.core.ssmt.SSMTEngine` reads at
construction, so the fused loop in :mod:`repro.kernel` never needs to
know which variant it drives, and no variant lives in a subclass.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
VARIANT_MODULES = ("repro.core.oracle", "repro.core.static")


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(SRC.parent), ast.parse(path.read_text())


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


KERNEL = list(_trees(SRC / "kernel"))


@pytest.mark.parametrize("path,tree", KERNEL, ids=[str(p) for p, _ in KERNEL])
def test_kernel_imports_no_engine_variant(path, tree):
    bad = [name for name in _imported_modules(tree)
           if name.startswith(VARIANT_MODULES)]
    assert not bad, f"{path} imports {bad}"


@pytest.mark.parametrize("path,tree", KERNEL, ids=[str(p) for p, _ in KERNEL])
def test_kernel_makes_no_type_check_on_the_engine(path, tree):
    checks = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "type")
        and node.args
        and "engine" in ast.unparse(node.args[0])
    ]
    assert not checks, f"{path} type-checks the engine at lines {checks}"


def test_no_class_subclasses_the_engine():
    subclasses = [
        f"{path}:{node.name}"
        for path, tree in _trees(SRC)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).split(".")[-1] == "SSMTEngine"
                for base in node.bases)
    ]
    assert not subclasses, f"engine variants must be data: {subclasses}"
