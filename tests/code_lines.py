"""Count the library's code lines: non-blank, non-comment lines outside docstrings.

Run from the repository root:

    python tests/code_lines.py

It prints one line per module of ``src/cyclemeet`` and then the total. A
docstring is the string that opens a module, class or function body; every
line it spans is left out, and so is a line that holds only a comment.
pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyclemeet"


def code_lines(source: str) -> int:
    """The number of lines of source that are neither blank, a comment, nor a docstring."""
    skipped: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skipped.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skipped and line.strip() and not line.strip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
