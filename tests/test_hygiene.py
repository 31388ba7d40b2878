"""Source hygiene: no module or test file imports a name it never uses or
has a line longer than 121 characters, no module defines a private name it
never uses, the package runs without numpy, whose values it pins instead,
and a well-formed request loads no module it does not run."""

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


def unused_private_names(source: str) -> list[str]:
    """The private module-level names (_x, not a dunder) that a module
    defines with def, class or an assignment and never reads itself."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = [name for target in node.targets for name in ast.walk(target)]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.startswith("_") and not target.id.startswith("__"):
                defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


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


def test_checker_flags_an_unused_private_name():
    source = "_A = 1\n_b, c = 2, 3\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\nx = _f()\n"
    assert unused_private_names(source) == ["line 2: _b", "line 6: _C"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_every_private_name_it_defines(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", SOURCES + TEST_FILES, ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TEST_FILES]
)
def test_module_lines_fit_121_columns(path):
    long_lines = [n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 121]
    assert long_lines == []


def run_child(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False, env=child_env())


#: Modules a well-formed request never loads: numpy, whose values the package
#: pins; json, which render_json alone imports; dataclasses and inspect;
#: argparse, which only prints usage, help and errors; and the selfcheck table.
COLD_START_SKIPS = {"numpy", "json", "dataclasses", "inspect", "argparse", "biphoton.selfcheck"}

#: Runs python -m biphoton with the argv in sys.argv[1:] and prints, after
#: its output, the modules that the request loaded.
REQUEST_MODULES = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["biphoton", *sys.argv[1:]]
try:
    runpy.run_module("biphoton", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, sorted(set(sys.modules) - before))
"""


def request_modules(*argv: str) -> tuple[str, int, set[str]]:
    """The stdout, exit code and newly loaded modules of one request in a child."""
    proc = subprocess.run(
        [sys.executable, "-c", REQUEST_MODULES, *argv], capture_output=True, text=True, check=True, env=child_env()
    )
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    code, modules = last.split(" ", 1)
    return out, int(code), set(ast.literal_eval(modules))


def test_cli_import_pulls_in_no_numpy():
    proc = run_child(f"import sys, biphoton.cli; assert not {COLD_START_SKIPS!r} & set(sys.modules), 'imported'")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--experiment", "pdc", "--angle", "theta1", "10", "--angle", "theta2", "40"],
        ["scan", "--experiment", "fig3", "--beam", "1", "gaussian", "3", "0.5"],
        ["chsh", "--state", "psi_u", "--a", "5"],
        ["run", "SPEC"],
    ],
    ids=["scan pdc", "scan fig3", "chsh", "run"],
)
def test_a_well_formed_request_loads_only_what_it_runs(tmp_path, argv):
    spec = tmp_path / "scenario.txt"
    spec.write_text("experiment fig1\nangle theta1 0\nscan theta2 0 180 45\n")
    out, code, loaded = request_modules(*[str(spec) if arg == "SPEC" else arg for arg in argv])
    assert code == 0 and out.startswith("param,value,closed_form,abs_error\n")
    assert loaded & COLD_START_SKIPS == set()


def test_selfcheck_loads_its_table_but_not_argparse():
    _, code, loaded = request_modules("selfcheck")
    assert code == 0
    assert "biphoton.selfcheck" in loaded and "argparse" not in loaded


def test_help_is_still_printed_by_argparse():
    out, code, loaded = request_modules("--help")
    assert code == 0 and out.startswith("usage: biphoton")
    assert "argparse" in loaded


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
