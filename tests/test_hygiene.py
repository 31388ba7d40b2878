"""Source hygiene: no module imports a name it never uses, and no line is
longer than 121 characters."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import biphoton

SOURCES = sorted(Path(biphoton.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a as b" and "from a import c as b" bind "b".
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nfrom typing import Union\nx = math.pi\n") == ["line 2: Union"]
    assert unused_imports("from . import optics as op\ny = op.hwp\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_lines_fit_121_columns(path):
    long_lines = [n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 121]
    assert long_lines == []
