"""The line counter (tests/linecount.py) on a small source string, and on a
revision of a small git repository."""

from __future__ import annotations

import subprocess

import linecount

SOURCE = '''"""Module docstring,
on two lines."""

# a comment-only line
import math  # a comment after code


class Beam:
    """One line."""

    def width(self):
        """Three

        lines."""
        text = """a string
that is not a docstring"""
        return (
            math.pi
        )
'''


def test_count_splits_code_docstrings_and_the_rest():
    # wc -l 19; docstrings on lines 1-2, 9 and 12-14; code on 5, 8, 11, 15-16 and 17-19.
    assert linecount.count(SOURCE) == (19, 8, 6)
    assert linecount.docstring_lines(SOURCE) == {1, 2, 9, 12, 13, 14}


def test_an_empty_module_counts_nothing():
    assert linecount.count("") == (0, 0, 0)
    assert linecount.count("# only a comment\n\n") == (2, 0, 0)


def test_a_rev_counts_its_committed_modules_not_the_working_tree(tmp_path, capsys):
    package = tmp_path / "src" / "biphoton"
    package.mkdir(parents=True)
    (package / "beam.py").write_text(SOURCE, encoding="utf-8")
    (package / "notes.txt").write_text("not a module\n", encoding="utf-8")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one module"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    (package / "beam.py").write_text("x = 1\n", encoding="utf-8")
    (package / "added.py").write_text("y = 2\n", encoding="utf-8")
    assert linecount.sources("HEAD", tmp_path) == [("beam.py", SOURCE)]
    assert linecount.sources(None, tmp_path) == [("added.py", "y = 2\n"), ("beam.py", "x = 1\n")]
    assert linecount.main(["HEAD"], tmp_path) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["module", "wc", "-l", "code", "docstring"], ["beam.py", "19", "8", "6"], ["total", "19", "8", "6"],
    ]
