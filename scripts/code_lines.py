#!/usr/bin/env python3
"""Count the code lines of each module of the verseforge package.

A code line is a line that holds a token outside docstrings and
comments; a docstring is the first string statement of a module, class
or function.  A token that spans lines, such as a multi-line string,
makes each of its lines a code line, and so does a line that holds only
a bracket of a multi-line expression.  Blank lines, comment lines and
docstring lines are not counted.

Run from the repo root:  python3 scripts/code_lines.py [DIR]
(default DIR: ``src/verseforge``).  Prints one line per module, then
the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "verseforge"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The ``(line, column)`` where each docstring of ``tree`` starts and
    ends."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    docstrings = docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and not any(
                start <= tok.start < end for start, end in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<20} {n:>6}")
    print(f"{'total':<20} {total:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
