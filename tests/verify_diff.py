"""Compare this tree's ``verify`` runs with another tree's, byte for byte.

Run from the repository root:

    python tests/verify_diff.py BASE_SRC   # BASE_SRC: another tree's src, e.g. base/src

Each ``verify`` command of ``RUNS`` runs twice as ``python -m cyclemeet.cli``,
once on this tree's ``src`` and once on ``BASE_SRC``. One line per run gives
``SAME`` when stdout, stderr and the exit code all agree and ``DIFF``
otherwise, then the base's exit code and this tree's, then the command.
It exits 0 either way, like ``code_lines.py``: the lines are for the reader.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the verify commands compared, each as its arguments after ``verify``
RUNS = (
    ("--suite", "all", "--seed", "42"),
    ("--suite", "all", "--seed", "1"),
    ("--suite", "all", "--corpus", "exhaustive7"),
    ("--suite", "babai", "--corpus", "circulants:count=50,max_n=24", "--seed", "5"),
    ("--suite", "smith", "--corpus", "vt:count=60,max_n=16", "--seed", "1"),
    ("--suite", "devos", "--seed", "42"),
    ("--suite", "thm14", "--corpus", "pairwise12"),
    ("--suite", "all", "--corpus", "smoke", "--seed", "1", "--budget", "2"),
    ("--suite", "babai", "--corpus", "smoke", "--seed", "1", "--budget", "2"),
    ("--suite", "all", "--corpus", "vt:count=60,max_n=16", "--seed", "1", "--budget", "20"),
    ("--suite", "babai", "--corpus", "exhaustive7", "--budget", "20"),
    ("--suite", "all", "--corpus", "circulants:count=50,max_n=24", "--seed", "5"),
    ("--suite", "all", "--corpus", "random:count=40,max_n=10", "--seed", "2"),
    ("--suite", "smith", "--seed", "42", "--budget", "400"),
)


def run(src: Path, args: tuple[str, ...]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``verify args`` on the package under src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    # cwd is src, so ``python -m`` puts that tree first on sys.path either way
    proc = subprocess.run([sys.executable, "-m", "cyclemeet.cli", "verify", *args],
                          cwd=src, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, metavar="BASE_SRC",
                        help="the src directory of the tree to compare with")
    args = parser.parse_args(argv)
    if not (args.base / "cyclemeet").is_dir():
        parser.error(f"no cyclemeet package under {args.base}")
    base = args.base.resolve()
    for command in RUNS:
        before, after = run(base, command), run(SRC, command)
        verdict = "SAME" if before == after else "DIFF"
        print(f"{verdict} {before[0]:2} {after[0]:2}  verify {' '.join(command)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
