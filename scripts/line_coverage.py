#!/usr/bin/env python3
"""Print the statement lines of the verseforge package that a test run
never executes.

A ``sys.settrace`` hook, limited to the files under ``src/verseforge``,
records each line that runs during an in-process ``pytest.main``; a line
counts as a statement when it holds bytecode and lies outside the body of
an ``if __name__ == "__main__":`` block, which an in-process run never
enters.  The tracing makes the run several times slower than a plain
one, so it is not part of the tests.

Run from the repo root:  python3 scripts/line_coverage.py [pytest args]
(the default pytest args are ``-q tests``).  Exits with pytest's status
when it is not 0, else with 1 when a statement line never ran, so that a
CI step can gate on it.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "verseforge"


def statement_lines(code) -> set[int]:
    """Lines holding bytecode in ``code`` and the code nested in it.  A
    function's first line is left out: a call runs no line event there,
    and the enclosing code counts the line of the ``def`` statement."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= statement_lines(const)
    return lines


def main_block_lines(tree: ast.Module) -> set[int]:
    """Lines of the body of each module-level ``if __name__ == "__main__":``."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def main(args) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    ran = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace_calls)
    try:
        status = pytest.main(args or ["-q", "tests"])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        missed = sorted(statement_lines(compile(tree, str(path), "exec"))
                        - main_block_lines(tree) - ran[str(path)])
        total += len(missed)
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
    print(f"{total} statement lines never ran")
    return status or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
