"""Every name that a module of the package imports is used in that module (the package's
`__init__.py` imports only to re-export, so it is not checked), every top-level function
and class of the package is named somewhere in the package or its tests, and only the
line source opens a file to read it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "persum"


def unused_imports(source: str) -> list[str]:
    """The names that `source` binds by import, `from __future__` aside, and never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_an_unused_name():
    source = "import io, os.path\nfrom typing import TextIO as T, Iterable\nx: Iterable = os.path\n"
    assert unused_imports(source) == ["io", "T"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def dead_definitions(defining: dict[str, str], sources: list[str]) -> list[str]:
    """Each top-level function and class of the `defining` modules (name -> source), as
    "module.name", that no ast.Name, ast.Attribute or import alias in `sources` names; a
    def's own name is no such node, so a definition does not name itself."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name.rpartition(".")[2], node.asname))
    return [
        f"{module}.{node.name}"
        for module, source in defining.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in named
    ]


def test_dead_definitions_finds_an_unnamed_definition():
    defining = {"m": "def used(): pass\ndef called(): pass\nclass Dead: pass\ndef dead(): pass\n"}
    sources = [*defining.values(), "from m import used as u\nimport m\nm.called()\n"]
    assert dead_definitions(defining, sources) == ["m.Dead", "m.dead"]


def test_every_definition_is_named():
    defining = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    tests = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))]
    assert dead_definitions(defining, [*defining.values(), *tests]) == []


def reading_opens(source: str, allowed: str) -> list[int]:
    """The lines of `source` that call open() (a name, or an attribute such as Path.open)
    with no mode or a mode that reads ("r", or one that is not a literal), or read_text or
    read_bytes, outside the function named `allowed`."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == allowed
        for node in ast.walk(function)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if name in ("read_text", "read_bytes"):
            lines.append(node.lineno)
        if name != "open":
            continue
        at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode) or Path(path).open(mode)
        mode = next((k.value for k in node.keywords if k.arg == "mode"), node.args[at] if len(node.args) > at else None)
        if mode is None or not isinstance(mode, ast.Constant) or "r" in mode.value:
            lines.append(node.lineno)
    return lines


def test_reading_opens_finds_every_read_mode():
    source = (
        "def read_lines(p):\n    open(p, 'rb')\n"
        "open(p, 'w')\nopen(p)\nopen(p, 'r')\nopen(p, mode='rb')\nopen(p, m)\nPath(p).open()\nPath(p).open('w')\n"
        "Path(p).read_text()\nPath(p).write_text(t)\n"
    )
    assert reading_opens(source, "read_lines") == [4, 5, 6, 7, 8, 10]


def test_every_input_is_opened_by_the_line_source():
    """Only corpus.read_lines opens a file to read it, so every input is decoded one way."""
    found = {
        path.name: reading_opens(path.read_text(encoding="utf-8"), "read_lines" if path.name == "corpus.py" else "")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
