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
that changes nothing observable. A mutant whose tests run longer than
``TIMEOUT_S`` is stopped and printed as ``TIMED OUT``; a hang is a change the
suite sees, so it counts as killed. The exit code is 1 when any mutant survives.

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
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant's pytest run past this is stopped, and the mutant counts as killed
HARNESS = "src/cyclemeet/harness.py"
CYCLES = "src/cyclemeet/cycles.py"
FLOW = "src/cyclemeet/flow.py"
TRANSITIVE = "src/cyclemeet/transitive.py"
GRAPHS = "src/cyclemeet/graphs.py"
AUXGRAPH = "src/cyclemeet/auxgraph.py"
EXCHANGE = "src/cyclemeet/exchange.py"
CLI = "src/cyclemeet/cli.py"
CORPUS = "src/cyclemeet/corpus.py"


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
        ((HARNESS, "kept[key] = err", "raise"),),
        ("tests/test_harness.py",),
    ),
    "cycle-length-from-enumeration": Mutant(
        "the report's cycle_length is the enumeration's, not facts.length, so every babai"
        " report, which enumerates nothing, gives a null cycle_length",
        ((HARNESS, "cycle_length = facts.length",
          "cycle_length = None if cs is None else cs.length"),),
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
        ((CYCLES, "return best, (CycleEmbedding(cs.sequences[i]), CycleEmbedding(cs.sequences[j]))",
          "return best, (CycleEmbedding(cs.sequences[j]), CycleEmbedding(cs.sequences[i]))"),),
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
    "cyclic-generator-step-two": Mutant(
        "a cyclic group file's generator is x -> x + 2, which makes only the even"
        " rotations when n is even",
        ((TRANSITIVE, "return (tuple((x + 1) % n for x in range(n)),), rotations",
          "return (tuple((x + 2) % n for x in range(n)),), rotations"),),
        ("tests/test_transitive.py", "tests/test_harness.py"),
    ),
    "empty-connection-accepted": Mutant(
        "cayley takes an empty connection set and returns an edgeless graph",
        ((TRANSITIVE, '    if not conn:\n        raise ValueError("empty connection set")\n    identity',
          "    identity"),),
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
        ((GRAPHS, "partner = maps[w].index(0) if w in maps else w",
          "partner = maps[w][w] if w in maps else w"),),
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
    "memo-key-without-closers": Mutant(
        "a slack-zero state is keyed by its kept set and head alone, so a state recorded"
        " under one second vertex is skipped or replayed under a later one that closes"
        " on other anchor neighbours",
        ((CYCLES, "state = seen | kept << shift | v", "state = kept << shift | v"),),
        ("tests/test_cycles.py",),
    ),
    "four-cycle-x-order-inverted": Mutant(
        "a 4-cycle's alpha is 1 when its paths' end orders on X_i and X_j agree, not when"
        " they differ",
        ((AUXGRAPH, "return FourCycleType(int(x_i != x_j),", "return FourCycleType(int(x_i == x_j),"),),
        ("tests/test_auxgraph.py", "tests/test_exchange.py"),
    ),
    "end-order-y-k-reversed": Mutant(
        "end_orders reads the Y_k order backwards, so every 4-cycle's beta and every"
        " Lemma 3.3 case's Y bit is flipped",
        ((AUXGRAPH, "y_k = pos(w[(i, k)][-1])[1] < pos(w[(j, k)][-1])[1]",
          "y_k = pos(w[(i, k)][-1])[1] > pos(w[(j, k)][-1])[1]"),),
        ("tests/test_auxgraph.py", "tests/test_exchange.py"),
    ),
    "lemma33-case-x-bit-flipped": Mutant(
        "the Lemma 3.3 case's X bit is 1 when the two 4-cycles' X_i orders differ,"
        " not when they agree",
        ((EXCHANGE, "case=(int(x1 == x2), int(y1 == y2))", "case=(int(x1 != x2), int(y1 == y2))"),),
        ("tests/test_exchange.py",),
    ),
    "cut-at-wrap-reversed": Mutant(
        "cut_at puts the run before the first mark ahead of the run after the last"
        " one, so the wrapping segment's vertices are out of cyclic order",
        ((AUXGRAPH, "runs.append(tuple(run) + lead)", "runs.append(lead + tuple(run))"),),
        ("tests/test_auxgraph.py", "tests/test_exchange.py"),
    ),
    "segment-index-zero-based": Mutant(
        "segment_of numbers the segments from 0, so aux-graph labels are off by one",
        ((AUXGRAPH, "for idx, seg in enumerate(segments, 1):", "for idx, seg in enumerate(segments):"),),
        ("tests/test_auxgraph.py", "tests/test_exchange.py"),
    ),
    "thm14-reports-the-first-pair": Mutant(
        "the thm14 scan finds the first pair over the bound but reports the first pair",
        ((HARNESS, "verify_thm14(g, *scanned[over or 0])", "verify_thm14(g, *scanned[0])"),),
        ("tests/test_harness.py",),
    ),
    "outcome-text-without-indent": Mutant(
        "the writer keys an outcome's kept text by the outcome alone, so an outcome met"
        " again at another indent is written at the first one's",
        ((HARNESS, "key = (newline, value.name,", "key = (value.name,"),),
        ("tests/test_harness.py",),
    ),
    "outcome-text-by-equal-numbers": Mutant(
        "the writer keys an outcome's kept text by its numbers, not their repr, so lhs 1.0"
        " is written as an earlier outcome's 1",
        ((HARNESS, "repr(value.lhs), repr(value.rhs)", "value.lhs, value.rhs"),),
        ("tests/test_harness.py",),
    ),
    "cycle-range-unchecked": Mutant(
        "a cycle's vertices are not checked against the graph's order, so vertex n is an"
        " IndexError and vertex -1 a negative shift",
        ((CYCLES, "    if not 0 <= min(vs) <= max(vs) < g.n:\n"
                  "        check_vertex_set(g, vs)  # raises, naming a vertex out of range\n", ""),),
        ("tests/test_cycles.py", "tests/test_harness.py"),
    ),
    "search-budget-one-early": Mutant(
        "the search raises on reaching its budget, one node expansion early",
        ((CYCLES, "if self.nodes > self.budget:", "if self.nodes >= self.budget:"),),
        ("tests/test_cycles.py",),
    ),
    "local-connectivity-takes-vertex-n": Mutant(
        "local_vertex_connectivity's range check lets s = n through",
        ((FLOW, "if not (0 <= s < g.n and 0 <= t < g.n):",
          "if not (0 <= s <= g.n and 0 <= t < g.n):"),),
        ("tests/test_flow.py",),
    ),
    "group-cap-one-past": Mutant(
        "the group closure takes a 129th element before refusing",
        ((TRANSITIVE, "if len(elements) >= VERTEX_CAP:", "if len(elements) > VERTEX_CAP:"),),
        ("tests/test_transitive.py",),
    ),
    "group-degree-one-refused": Mutant(
        "the group parser refuses degree 1",
        ((TRANSITIVE, "    if n < 1:\n        raise ValueError(f\"group degree",
          "    if n <= 1:\n        raise ValueError(f\"group degree"),),
        ("tests/test_transitive.py",),
    ),
    "cycle-notation-takes-tabs": Mutant(
        "the cycle-notation pattern lets a tab separate the points inside a cycle",
        ((TRANSITIVE, r'_CYCLE_NOTATION = re.compile(r"[ ,]*(?:\([ ,\d]*\)[ ,]*)*")',
          r'_CYCLE_NOTATION = re.compile(r"[ ,]*(?:\([ ,\t\d]*\)[ ,]*)*")'),),
        ("tests/test_transitive.py",),
    ),
    "draw-loop-one-try-short": Mutant(
        "the seeded draw loop gives up one try early, so a family whose last graph"
        " comes on the last try raises",
        ((CORPUS, "for _ in range(tries):", "for _ in range(tries - 1):"),),
        ("tests/test_corpus.py",),
    ),
    "perm-points-relabelled-decreasing": Mutant(
        "a perm group's named points are relabelled in decreasing order, which reorders"
        " the sorted elements and so renumbers the Cayley graph's vertices",
        ((TRANSITIVE, "enumerate(sorted(set().union(*moves)))",
          "enumerate(sorted(set().union(*moves), reverse=True))"),),
        ("tests/test_transitive.py",),
    ),
    "separator-flow-through-shared": Mutant(
        "the thm14 cut is a minimum cut of all of G, where paths may pass through M, plus M",
        ((FLOW, "min_vertex_cut(g, a, b, allowed=frozenset(range(g.n)) - shared)",
          "min_vertex_cut(g, a, b)"),),
        ("tests/test_flow.py",),
    ),
    "negative-cycle-list-as-option": Mutant(
        "the CLI keeps argparse's own pattern for a negative number, so a cycle list that"
        " starts with a negative vertex is taken for an option",
        ((CLI, 're.compile(r"-\\.?\\d")', r're.compile(r"^-\d+$|^-\d*\.\d+$")'),),
        ("tests/test_harness.py",),
    ),
    "lemma33-shared-y-index": Mutant(
        "Lemma 3.3 takes two 4-cycles whose Y-pairs share an index, not only disjoint ones",
        ((EXCHANGE, "    if {k1, l1} & {k2, l2}:\n        return None\n", ""),),
        ("tests/test_exchange.py",),
    ),
    "translation-wrap-dropped": Mutant(
        "the translation test drops the bit that wraps from vertex n - 1 to 0, so no"
        " labelled circulant's orbit is seeded and every one is searched again",
        ((TRANSITIVE, "(rows[v] << 1 | rows[v] >> (n - 1))", "(rows[v] << 1)"),),
        ("tests/test_transitive.py", "tests/test_harness.py"),
    ),
    "circulant-layers-skipped": Mutant(
        "the circulant cycle construction skips the snake through layers 1..r-1, so the"
        " cylinder walk misses their vertices and breaks off",
        ((TRANSITIVE, "seq += [(seq[i] + j * s) % n for i in cols]", "pass"),),
        ("tests/test_transitive.py", "tests/test_harness.py"),
    ),
    "n-cycle-test-any-map": Mutant(
        "the construction takes the first orbit map as its n-cycle, whatever its cycle"
        " through 0",
        ((TRANSITIVE, "if len(order) == n:", "if True:"),),
        ("tests/test_transitive.py", "tests/test_harness.py"),
    ),
    "length-search-collects": Mutant(
        "the length search keeps every cycle of the best length, so its floor stays at"
        " c(G) and it collects where it should only look for a longer cycle",
        ((CYCLES, "search = _Search(g, budget, limit=1)", "search = _Search(g, budget, limit=None)"),),
        ("tests/test_cycles.py", "tests/test_harness.py"),
    ),
    "verdict-witness-on-pass": Mutant(
        "a passing theorem check carries the graph6 and its would-be witness too",
        ((HARNESS, 'witness=None if ok else {"graph6": graph_to_graph6(g), **witness})',
          'witness={"graph6": graph_to_graph6(g), **witness})'),),
        ("tests/test_harness.py",),
    ),
    "supersaturation-edge-bound-dropped": Mutant(
        "a supersaturation report with e(F) >= m leaves edge_bound_ok as None, so the"
        " harness reads its chain as failed and the report writes a null flag",
        ((AUXGRAPH, "l_ok=lsize >= l_lb, edge_bound_ok=edge_bound_holds(ecount, m))",
          "l_ok=lsize >= l_lb)"),),
        ("tests/test_auxgraph.py", "tests/test_harness.py"),
    ),
    "smith-truncated-before-skips": Mutant(
        "smith reads a truncated cycle set before its skip tests, so a graph it does not"
        " apply to is inconclusive instead of skipped",
        ((HARNESS, '    if g.n < 3 or not facts.connected:\n'
                   '        return Outcome("smith", "skipped", detail="needs a connected graph")\n',
          '    try:\n'
          '        if facts.cycles is not None and facts.cycles.truncated:\n'
          '            return Outcome("smith", "inconclusive", detail="enumeration truncated")\n'
          '    except BudgetExceededError:\n'
          '        pass\n'
          '    if g.n < 3 or not facts.connected:\n'
          '        return Outcome("smith", "skipped", detail="needs a connected graph")\n'),),
        ("tests/test_harness.py",),
    ),
    "restitch-budget-unchecked": Mutant(
        "the restitching search takes a budget below 1 and raises its budget error at the"
        " first node",
        ((EXCHANGE, '    if budget < 1:\n'
                    '        raise ValueError("search budget must be at least 1")\n', ""),),
        ("tests/test_exchange.py",),
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


def failing_tests(mutant: Mutant, profile: str) -> Optional[list[str]]:
    """The ids of the mutant's tests that fail or error in a mutated copy.

    None when the run takes more than ``TIMEOUT_S``: a mutant that makes a
    test loop is stopped there and counts as killed.
    """
    with tempfile.TemporaryDirectory(prefix="cyclemeet-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root / "pyproject.toml")
        apply(mutant, root)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                 f"--hypothesis-profile={profile}", *mutant.tests],
                cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None
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
        survived |= failed == []
        if failed is None:
            verdict = f"TIMED OUT after {TIMEOUT_S} s, counted as killed"
        elif failed:
            verdict = f"{len(failed)} failed: {', '.join(failed)}"
        else:
            verdict = f"SURVIVED ({mutant.what})"
        print(f"{name}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
