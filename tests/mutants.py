"""Opt-in mutant runner: which tests fail on each named source mutant.

Run from the repository root:

    python tests/mutants.py                  # every mutant
    python tests/mutants.py NAME [NAME ...]  # the named ones
    python tests/mutants.py --hypothesis-profile random NAME  # fresh examples

A mutant is a list of exact text replacements in files under ``src/``, each
of whose old texts must occur exactly once. For each mutant the runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, applies
the replacements there, and runs the mutant's tests in that copy with pytest,
one mutant at a time. It prints one line per mutant: the failing tests, or
``SURVIVED`` and what the mutant breaks when none fails. A survivor is a gap in the suite, or a mutant
that changes nothing observable. The exit code is 1 when any mutant survives.

pytest does not collect this file, and the tier-1 suite does not run the
mutants; ``tests/test_mutants.py`` only checks that each one still applies.
Hypothesis tests run under the suite's derandomized ``tier1`` profile, so a
line is the same on every run; ``--hypothesis-profile random`` draws fresh
examples instead, for a mutant that only some draws kill.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = "src/cyclemeet/harness.py"
CYCLES = "src/cyclemeet/cycles.py"
TRANSITIVE = "src/cyclemeet/transitive.py"
GRAPHS = "src/cyclemeet/graphs.py"


@dataclass(frozen=True)
class Mutant:
    what: str
    edits: tuple[tuple[str, str, str], ...]  # (file, old text, new text)
    tests: tuple[str, ...]


MUTANTS = {
    "separator-key-x-only": Mutant(
        "pairs share a separator whenever V(x) agrees, whatever V(y)",
        ((HARNESS, "separators.get((xm, ym))", "separators.get(xm)"),
         (HARNESS, "rep = separators[xm, ym] =", "rep = separators[xm] =")),
        ("tests/test_harness.py",),
    ),
    "separator-key-unordered": Mutant(
        "(x, y) and (y, x) share a separator, though each has its own nearest cut",
        ((HARNESS, "(mask_of(m_pair[0].vertices), mask_of(m_pair[1].vertices))",
          "frozenset((mask_of(m_pair[0].vertices), mask_of(m_pair[1].vertices)))"),
         (HARNESS, "separators.get((xm, ym))", "separators.get(frozenset((xm, ym)))"),
         (HARNESS, "rep = separators[xm, ym] =", "rep = separators[frozenset((xm, ym))] =")),
        ("tests/test_harness.py",),
    ),
    "transversal-key-m": Mutant(
        "the Prop. 2.1 verdict is shared by cuts of pairs with the same m",
        ((HARNESS, "transversal.get(rep.cut)", "transversal.get(rep.m)"),
         (HARNESS, "transversal[rep.cut] = is_t_transversal", "transversal[rep.m] = is_t_transversal")),
        ("tests/test_harness.py",),
    ),
    "kept-error-dropped": Mutant(
        "a fact's budget error is raised but not kept, so its search runs again on the next read",
        ((HARNESS, "kept[self.key] = err", "raise"),),
        ("tests/test_harness.py",),
    ),
    "corpus-default-changed": Mutant(
        "the vt corpus draws 199 graphs by default, not the documented 200",
        ((HARNESS, '"vt": ({"count": 200, "max_n": 32}', '"vt": ({"count": 199, "max_n": 32}'),),
        ("tests/test_harness.py",),
    ),
    "complete-keeps-truncated": Mutant(
        "a truncated cycle set counts as complete: the default filter keeps it and the"
        " pair checks read it",
        ((HARNESS, "return None if cs is None or cs.truncated else cs", "return cs"),),
        ("tests/test_harness.py",),
    ),
    "witness-swapped": Mutant(
        "min_pairwise_intersection returns its witness pair the other way round",
        ((CYCLES, "return best, (cs.cycles[witness[0]], cs.cycles[witness[1]])",
          "return best, (cs.cycles[witness[1]], cs.cycles[witness[0]])"),),
        ("tests/test_harness.py", "tests/test_cycles.py"),
    ),
    "witness-last": Mutant(
        "min_pairwise_intersection keeps the last pair of distinct sets at the minimum",
        ((CYCLES, "if best is None or size < best:", "if best is None or size <= best:"),),
        ("tests/test_harness.py", "tests/test_cycles.py"),
    ),
    "leaf-row-check": Mutant(
        "a discrete partition's map is returned without checking its rows",
        ((TRANSITIVE, "!= g._rows[perm[u]]:", "!= g._rows[perm[u]] and False:"),),
        ("tests/test_transitive.py",),
    ),
    "splitter-count": Mutant(
        "refinement counts every splitter neighbour as one",
        ((TRANSITIVE, "count = (rows[low.bit_length() - 1] & split).bit_count()", "count = 1"),),
        ("tests/test_transitive.py",),
    ),
    "h-side-first-vertex": Mutant(
        "a branch individualizes only the first vertex of the right cell",
        ((TRANSITIVE, "for w in chain(iter_bits(above), iter_bits(cell_h ^ above)):",
          "for w in list(chain(iter_bits(above), iter_bits(cell_h ^ above)))[:1]:"),),
        ("tests/test_transitive.py",),
    ),
    "candidate-order-ascending": Mutant(
        "a branch tries the right cell's candidates in ascending order, so the first map found is"
        " often an involution through 0 and the orbit takes more searches",
        ((TRANSITIVE, "for w in chain(iter_bits(above), iter_bits(cell_h ^ above)):",
          "for w in iter_bits(cell_h):"),),
        ("tests/test_transitive.py", "tests/test_harness.py"),
    ),
    "root-queue-every-cell": Mutant(
        "a regular graph's root is refined by the rest cell too, repeating the"
        " singletons' split",
        ((TRANSITIVE, "        queue = queue[:1]\n", ""),
         (TRANSITIVE, "    if is_regular(g) is not None:\n", "")),
        ("tests/test_transitive.py", "tests/test_harness.py"),
    ),
    "orbit-size-guard-dropped": Mutant(
        "κ drops the neighbour pairs whenever it has the orbit of 0, even one no larger"
        " than the degree, which a minimum cut may hold whole (FFzvO)",
        ((GRAPHS, "if maps is None or v != 0 or len(maps) <= d:", "if maps is None or v != 0:"),),
        ("tests/test_graphs.py", "tests/test_harness.py"),
    ),
    "orbit-partner-wrong": Mutant(
        "κ pairs a non-neighbour w with maps[w](w), not maps[w]⁻¹(0)",
        ((GRAPHS, "partner = maps[w].preimage(0) if w in maps else w",
          "partner = maps[w](w) if w in maps else w"),),
        ("tests/test_graphs.py", "tests/test_harness.py"),
    ),
    "kappa-before-orbit": Mutant(
        "the report reads κ before the checks, so κ never finds the orbit of 0 searched",
        ((HARNESS, "    degree = facts.degree\n",
          "    degree = facts.degree\n    facts.connectivity if g.n >= 2 else None\n"),),
        ("tests/test_harness.py",),
    ),
    "dead-state-after-floor-rise": Mutant(
        "a child entered after a sibling raised floor, and so cut unsearched, is"
        " remembered as closing nothing (HRaYpQw)",
        ((CYCLES, "if self.floor == floor and self.best == best and",
          "if self.best == best and"),),
        ("tests/test_cycles.py",),
    ),
    "memo-after-best-change": Mutant(
        "a truncated search's child whose close became the new best at the same"
        " floor is remembered with a slice of the cleared kept set (FCpv_)",
        ((CYCLES, "if self.floor == floor and self.best == best and",
          "if self.floor == floor and"),),
        ("tests/test_cycles.py",),
    ),
}


def apply(mutant: Mutant, root: Path) -> None:
    """Make each of the mutant's replacements in the copy at root."""
    for name, old, new in mutant.edits:
        path = root / name
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: expected one {old!r}, found {text.count(old)}")
        path.write_text(text.replace(old, new), encoding="utf-8")


def failing_tests(mutant: Mutant, profile: str) -> list[str]:
    """The ids of the mutant's tests that fail or error in a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="cyclemeet-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root / "pyproject.toml")
        apply(mutant, root)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             f"--hypothesis-profile={profile}", *mutant.tests],
            cwd=root, capture_output=True, text=True,
        )
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1) and not failed:
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    parser.add_argument("--hypothesis-profile", default="tier1", choices=("tier1", "random"))
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    survived = False
    for name in args.names or MUTANTS:
        mutant = MUTANTS[name]
        failed = failing_tests(mutant, args.hypothesis_profile)
        survived |= not failed
        print(f"{name}: " + (f"{len(failed)} failed: {', '.join(failed)}" if failed
                             else f"SURVIVED ({mutant.what})"), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
