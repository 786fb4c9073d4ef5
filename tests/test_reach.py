"""Every top-level function and class in `src/diarkit` is reached: code in
`src/`, `perfbench/*.py` or `tests/test_acceptance.py` refers to it by name
outside its own definition. Other tests do not count, so a helper only a
unit test calls fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "diarkit").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> list[str]:
    """The names a node refers to: a `Name`, an `Attribute`'s attribute, or
    each part of an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [part for alias in node.names for part in alias.name.split(".")]
    return []


def unreached(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """`module:name` of each top-level function or class defined in
    `package` that no code in `package` or `callers` refers to, references
    inside the definition itself aside. Both map a label to source text."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for label, source in [*package.items(), *callers.items()]:
        for top in ast.parse(source).body:
            own = top.name if label in package and isinstance(top, DEFINITIONS) else None
            if own:
                defined.append((label, own))
            for node in ast.walk(top):
                referenced.update(name for name in _names(node) if name != own)
    return [f"{label}:{name}" for label, name in defined if name not in referenced]


def _sources(paths) -> dict[str, str]:
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in paths}


def test_every_top_level_definition_is_reached():
    assert unreached(_sources(PACKAGE), _sources(CALLERS)) == []


@pytest.mark.parametrize(
    "package, callers, expected",
    [
        ({"m": "def f():\n    pass\n"}, {}, ["m:f"]),
        ({"m": "def f():\n    return f()\n"}, {}, ["m:f"]),
        ({"m": "def f():\n    pass\n\ndef g():\n    return f()\n"}, {"c": "from m import g\n"}, []),
        ({"m": "class C:\n    pass\n"}, {"c": "import m\nm.C()\n"}, []),
        ({"m": "def f():\n    pass\n"}, {"c": "x = 'f'\n"}, ["m:f"]),
        ({"m": "def f():\n    pass\n"}, {"c": "def f():\n    pass\n"}, ["m:f"]),
        ({"m": "X = 1\n"}, {}, []),
    ],
    ids=["unused", "recursion-only", "called-and-imported", "attribute", "string",
         "caller-definition", "constant"],
)
def test_the_check_itself(package, callers, expected):
    assert unreached(package, callers) == expected
