"""Count the library's code lines: non-blank, non-comment lines outside docstrings.

Run from the repository root:

    python tests/code_lines.py              # this tree's counts
    python tests/code_lines.py BASE_PACKAGE # against another src/cyclemeet

It prints one line per module of ``src/cyclemeet`` and then the total. Given
a second package directory, such as ``base/src/cyclemeet`` of a base
commit's checkout, each line gives that package's count, this one's, and
the change; a module found in only one of them counts 0 in the other. A
docstring is the string that opens a module, class or function body; every
line it spans is left out, and so is a line that holds only a comment.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
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


def package_counts(package: Path) -> dict[str, int]:
    """The code lines of each module of a package directory, by module name."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", type=Path, metavar="BASE_PACKAGE",
                        help="another src/cyclemeet directory to compare with")
    args = parser.parse_args(argv)
    counts = package_counts(PACKAGE)
    if args.base is None:
        for name, count in counts.items():
            print(f"{name:12} {count:5}")
        print(f"{'total':12} {sum(counts.values()):5}")
        return 0
    if not args.base.is_dir():
        parser.error(f"no package directory at {args.base}")
    base_counts = package_counts(args.base)
    print(f"{'module':12} {'base':>5} {'here':>5} {'delta':>6}")
    rows = [(name, base_counts.get(name, 0), counts.get(name, 0))
            for name in sorted(counts.keys() | base_counts.keys())]
    rows.append(("total", sum(base_counts.values()), sum(counts.values())))
    for name, before, after in rows:
        print(f"{name:12} {before:5} {after:5} {after - before:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
