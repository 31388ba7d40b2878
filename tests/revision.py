"""The biphoton package of a git revision, importable next to the working tree's.

    with revision_package("HEAD") as parent:
        parent.scenario.parse_scenario("experiment pdc\\n")

`git archive REV src/biphoton` is extracted into a temporary directory as
the package `biphoton_parent`, which imports beside `biphoton` because every
import inside the package is relative.  On exit its modules are forgotten
and the directory is removed.  Pytest does not collect this module.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Iterator
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
NAME = "biphoton_parent"
#: The modules loaded with the package, as its attributes.
SUBMODULES = ("cli", "experiments", "scenario", "selfcheck")


@contextlib.contextmanager
def revision_package(rev: str) -> Iterator[ModuleType]:
    """The package at rev, as `biphoton_parent` with its SUBMODULES imported."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/biphoton"], capture_output=True, check=True
    ).stdout
    with tempfile.TemporaryDirectory(prefix="biphoton-rev-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # The "data" filter refuses links and paths outside tmp; older Pythons lack it.
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        (Path(tmp) / "src" / "biphoton").rename(Path(tmp) / NAME)
        sys.path.insert(0, tmp)
        try:
            package = importlib.import_module(NAME)
            for name in SUBMODULES:
                importlib.import_module(f"{NAME}.{name}")
            yield package
        finally:
            sys.path.remove(tmp)
            for name in [m for m in sys.modules if m == NAME or m.startswith(NAME + ".")]:
                del sys.modules[name]
