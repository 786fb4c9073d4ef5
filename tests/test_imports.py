"""Every module-level import in `src/diarkit` is used by its module."""

import ast
from pathlib import Path

import pytest

import diarkit

MODULES = sorted(Path(diarkit.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level `import` statements that the module never
    reads and does not list in `__all__`; `__future__` imports are
    compiler directives and bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def local_imports(source: str) -> list[str]:
    """`line N` of each import statement inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    lines = {
        node.lineno
        for scope in ast.walk(ast.parse(source))
        if isinstance(scope, scopes)
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"line {n}" for n in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    """No import waits for call time: every module imports at its top."""
    assert local_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["line 1: os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb = 1\n", ["line 1: c"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import os\n", []),
    ],
)
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize(
    "source, found",
    [
        ("import os\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import os\n", []),
        ("def f():\n    import os\n", ["line 2"]),
        ("class C:\n    def f(self):\n        from a import b\n", ["line 3"]),
    ],
    ids=["top", "type-checking", "function", "method"],
)
def test_the_local_check_itself(source, found):
    assert local_imports(source) == found
