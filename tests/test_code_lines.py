"""scripts/code_lines.py: which lines of a source count as code."""

from conftest import load_module

code_lines = load_module("scripts/code_lines.py")

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment alone


def area(radius):
    """A function docstring."""
    return (math.pi
            * radius ** 2)


class Box:
    """A class docstring."""

    label = """a multi-line string
that is not a docstring"""
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, def, the return statement's two lines, class, and the two
    # lines of the string assigned to label
    assert code_lines.code_lines(SOURCE) == 7
