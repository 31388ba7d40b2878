"""The README quick start and CLI examples run against the current API."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from biphoton.cli import main
from biphoton.scenario import _DIRECTIVES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def readme_cli_examples() -> list[tuple[list[str], str]]:
    """Each `$ biphoton ...` line of a README code block, with the lines after
    it up to the next `$` line or the end of the block as its stdout."""
    examples: list[tuple[list[str], list[str]]] = []
    in_block = collecting = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, collecting = not in_block, False
        elif in_block and line.startswith("$ "):
            collecting = line.startswith("$ biphoton ")
            if collecting:
                examples.append((shlex.split(line)[2:], []))
        elif collecting:
            examples[-1][1].append(line + "\n")
    return [(argv, "".join(lines)) for argv, lines in examples]


def test_readme_cli_examples_print_their_output(capsys):
    examples = readme_cli_examples()
    assert examples, "README has no $ biphoton example"
    for argv, stdout in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == stdout, argv


def test_readme_directives_block_is_the_grammar_table():
    """Each line of the Directives block is a directive of scenario._DIRECTIVES
    with as many values as its count ("+": at least one), and the block lists
    every directive, in the table's order."""
    block = re.search(r"Directives:\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert block, "README has no Directives block"
    keys = []
    for line in block.group(1).splitlines():
        key, *values = line.partition("#")[0].split()
        nargs = _DIRECTIVES[key].nargs
        assert len(values) >= 1 if nargs == "+" else len(values) == nargs, line
        if key not in keys[-1:]:
            keys.append(key)
    assert keys == list(_DIRECTIVES)
