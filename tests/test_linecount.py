"""The line counter (tests/linecount.py) on a small source string."""

from __future__ import annotations

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
