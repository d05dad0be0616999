"""``scripts/code_lines.py`` counts the lines that hold a token outside
docstrings and comments."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''\
"""A module docstring,
over two lines."""

import re  # a trailing comment

# a comment line


class C:
    """A class docstring."""

    def f(self, x):
        """A function docstring
        over two lines."""
        y = (x
             + 1)  # a comment inside an expression

        return [
            y,
        ]


def g():
    "the first string statement only"
    "a second string statement is code"
    return """a string
over two lines"""
'''


def test_counts_the_lines_that_hold_a_token_outside_docstrings_and_comments():
    # import, class, def f, the two lines of y, the three of the returned
    # list, def g, the second string and the two lines of the last return
    assert code_lines.code_lines(SOURCE) == 12


def test_a_docstring_beside_code_leaves_the_line_counted():
    assert code_lines.code_lines('def f(): """doc"""\n') == 1
    assert code_lines.code_lines('"""doc"""\n"""not doc"""\n') == 1
    assert code_lines.code_lines("") == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["a.py", "12", "b.py", "1", "total", "13"]
