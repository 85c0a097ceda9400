"""Every name that a module of the package imports is used in that module. The package's
`__init__.py` imports only to re-export, so it is not checked."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "persum"


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
