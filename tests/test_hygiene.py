"""Source hygiene: no module or test file imports a name it never uses or
has a line longer than 121 characters, and the package runs without
numpy, whose values it pins instead."""

from __future__ import annotations

import ast
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import biphoton
from biphoton import selfcheck
from support import child_env

SOURCES = sorted(Path(biphoton.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


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


def test_package_root_exports_only_the_quick_start_api():
    public = {name for name, value in vars(biphoton).items() if not isinstance(value, types.ModuleType)}
    public = {name for name in public if not name.startswith("_")}
    assert public == {
        "CANONICAL_CHSH_ANGLES", "CascadeGeometry", "ScenarioResult", "chsh_S", "coincidence", "correlation_E",
        "fig3_visibility", "source",
    }


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nfrom typing import Union\nx = math.pi\n") == ["line 2: Union"]
    assert unused_imports("from . import optics as op\ny = op.hwp\n") == []


@pytest.mark.parametrize(
    "path", MODULES + TEST_FILES, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES]
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", SOURCES + TEST_FILES, ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TEST_FILES]
)
def test_module_lines_fit_121_columns(path):
    long_lines = [n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 121]
    assert long_lines == []


def run_child(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False, env=child_env())


def test_cli_import_pulls_in_no_numpy():
    proc = run_child("import sys, biphoton.cli; assert 'numpy' not in sys.modules, 'numpy imported'")
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_with_numpy_unimportable():
    proc = run_child(
        "import runpy, sys\n"
        "sys.modules['numpy'] = None\n"
        "for argv in (['selfcheck'], ['scan', '--experiment', 'fig3']):\n"
        "    sys.argv = ['biphoton', *argv]\n"
        "    try:\n"
        "        runpy.run_module('biphoton', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "fig3_visibility_psi_u" in proc.stdout and "visibility,1,1,0" in proc.stdout


def test_selfcheck_constants_match_numpy():
    grid = np.linspace(0.0, math.pi, 73)
    draws = np.random.default_rng(16).uniform(-math.pi, math.pi, 16)
    assert len(selfcheck._GRID_73) == len(grid) and all(a == b for a, b in zip(selfcheck._GRID_73, grid))
    assert len(selfcheck._UNIFORM_16) == len(draws) and all(a == b for a, b in zip(selfcheck._UNIFORM_16, draws))
