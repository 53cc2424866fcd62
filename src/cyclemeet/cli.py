"""Command-line interface: generators, cycle reports, separators, verification.

Exit codes: 0 all checks pass, 1 a theorem-backed check failed (witness in
the output) or an internal invariant failed (a one-line JSON error on
stderr), 2 budget exhaustion left something inconclusive, 3 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from typing import Optional, Sequence

from .auxgraph import SameSegmentPairError, l_set, pair_aux, supersaturation_report, type_census
from .corpus import random_graph
from .cycles import (
    BudgetExceededError,
    CycleEmbedding,
    DEFAULT_BUDGET,
    enumerate_longest_cycles,
    longest_cycle_length,
    min_pairwise_intersection,
)
from .exchange import improve_by_exchange
from .flow import xy_separator
from .graphs import Graph, graph_from_graph6, graph_to_graph6
from .harness import CorpusSpec, json_text, reports_to_json, run_corpus
from .transitive import cayley, circulant, parse_group

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts with a minus and a digit, such as the cycle list
        # "-1,0,1", is a value and not an option; argparse's own pattern takes
        # only a plain negative number for one
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):  # argparse default exits 2; usage errors are 3 here
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read().strip()
    if not text:
        raise ValueError("empty graph file")
    return graph_from_graph6(text.splitlines()[0])


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_pair(args) -> tuple[Graph, CycleEmbedding, CycleEmbedding]:
    """The graph of ``--in`` and the cycles ``--x`` and ``--y``, split at commas or spaces."""
    g = _read_graph(args.infile)
    x, y = (CycleEmbedding.from_sequence(g, [int(tok) for tok in text.replace(",", " ").split()])
            for text in (args.x, args.y))
    return g, x, y


def _emit(payload: dict) -> None:
    sys.stdout.write(json_text(payload))


def cmd_gen(args) -> int:
    if args.generator == "circulant":
        conn = {int(tok) for tok in args.conn.split(",") if tok.strip()}
        g = circulant(args.n, conn)
    elif args.generator == "cayley":
        with open(args.file, "r", encoding="utf-8") as handle:
            g = cayley(*parse_group(handle.read()))
    else:
        g = random_graph(args.n, args.p, args.seed)
    print(graph_to_graph6(g))
    return EXIT_PASS


def cmd_cycles(args) -> int:
    g = _read_graph(args.infile)
    try:
        if args.enumerate:
            cs = enumerate_longest_cycles(g, limit=args.limit, budget=args.budget)
            _emit(cs.to_json_dict())
            return EXIT_INCONCLUSIVE if cs.truncated else EXIT_PASS
        c = longest_cycle_length(g, budget=args.budget)
        _emit({"length": c})
        return EXIT_PASS
    except BudgetExceededError as err:
        _emit({"error": str(err), "best_length_lower_bound": err.best_length})
        return EXIT_INCONCLUSIVE


def cmd_intersect(args) -> int:
    g = _read_graph(args.infile)
    try:
        cs = enumerate_longest_cycles(g, limit=args.limit, budget=args.budget)
    except BudgetExceededError as err:
        _emit({"error": str(err)})
        return EXIT_INCONCLUSIVE
    payload = {"length": cs.length, "count": len(cs), "truncated": cs.truncated, "m_min": None}
    if len(cs) >= 2:
        # over a truncated set, m_min only bounds the true minimum from above
        m_min, (x, y) = min_pairwise_intersection(cs)
        payload.update(m_min=m_min, witness_x=list(x.vertices), witness_y=list(y.vertices))
    elif not cs.truncated:
        payload["note"] = "single longest cycle"
    _emit(payload)
    return EXIT_INCONCLUSIVE if cs.truncated else EXIT_PASS


def cmd_separator(args) -> int:
    g, x, y = _read_pair(args)
    rep = xy_separator(g, x, y)
    _emit(rep.to_json_dict())
    return EXIT_PASS if rep.bound_satisfied else EXIT_FAIL


def cmd_auxgraph(args) -> int:
    g, x, y = _read_pair(args)
    rep = xy_separator(g, x, y)
    if not rep.m:
        _emit({"error": "empty intersection"})
        return EXIT_FAIL
    try:
        f = pair_aux(g, x, y, rep)
    except SameSegmentPairError as err:
        # Prop. 2.2 rules this out for longest cycles; `certify` turns it into a longer cycle
        _emit({"error": "same segment pair", "pair": list(err.pair),
               "path1": list(err.path1), "path2": list(err.path2)})
        return EXIT_FAIL
    if f is None:
        _emit({"m": rep.m, "edges": [], "note": "one cycle inside the other"})
        return EXIT_PASS
    census = {f"({a},{b})": count for (a, b), count in sorted(type_census(f).items())}
    _emit({
        "aux": f.to_json_dict(),
        "type_census": census,
        "l_set": sorted(list(p) for p in l_set(f)),
        "supersaturation": supersaturation_report(f).to_json_dict(),
    })
    return EXIT_PASS


def cmd_certify(args) -> int:
    g, x, y = _read_pair(args)
    improved = improve_by_exchange(g, x, y)
    if improved is None:
        _emit({"improved": False})
    else:
        _emit({
            "improved": True,
            "q1": list(improved[0].vertices),
            "q2": list(improved[1].vertices),
            "total_before": x.length + y.length,
            "total_after": improved[0].length + improved[1].length,
        })
    return EXIT_PASS


def cmd_verify(args) -> int:
    spec = CorpusSpec.parse(args.corpus, seed=args.seed)
    if args.budget is not None:
        spec = dataclasses.replace(spec, budget=args.budget)
    reports = run_corpus(spec, suite=args.suite)
    text = reports_to_json(reports, spec, args.suite)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    statuses = [r.worst_status() for r in reports]
    if "fail" in statuses:
        return EXIT_FAIL
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cyclemeet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a graph as graph6 on stdout")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    gc = gen_sub.add_parser("circulant")
    gc.add_argument("--n", type=int, required=True)
    gc.add_argument("--conn", type=str, required=True, help="comma-separated connection set")
    gy = gen_sub.add_parser("cayley")
    gy.add_argument("--file", type=str, required=True, help="group presentation file")
    gr = gen_sub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--p", type=float, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    # options shared by several commands, each declared once
    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("--in", dest="infile", required=True)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--limit", type=_positive_int, default=None)
    search.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    pair = argparse.ArgumentParser(add_help=False, parents=[graph_in])
    pair.add_argument("--x", required=True, help="comma-separated cycle vertices")
    pair.add_argument("--y", required=True)

    cyc = sub.add_parser("cycles", help="longest cycle length or full enumeration",
                         parents=[graph_in, search])
    cyc.add_argument("--enumerate", action="store_true")
    cyc.set_defaults(func=cmd_cycles)
    sub.add_parser("intersect", help="minimum pairwise longest-cycle intersection",
                   parents=[graph_in, search]).set_defaults(func=cmd_intersect)
    sub.add_parser("separator", help="vertex cut separating two cycles",
                   parents=[pair]).set_defaults(func=cmd_separator)
    sub.add_parser("auxgraph", help="auxiliary graph, type census, counts",
                   parents=[pair]).set_defaults(func=cmd_auxgraph)
    sub.add_parser("certify", help="attempt an exchange on a cycle pair",
                   parents=[pair]).set_defaults(func=cmd_certify)

    ver = sub.add_parser("verify", help="run a verification suite over a corpus")
    ver.add_argument("--suite", choices=["babai", "smith", "thm14", "devos", "all"],
                     required=True)
    ver.add_argument("--corpus", type=str, default="default")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--budget", type=_positive_int, default=None,
                     help=f"node budget per search (default {DEFAULT_BUDGET})")
    ver.add_argument("--out", type=str, default=None)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except RuntimeError as err:
        # an internal invariant failed (say, a Menger violation in min_vertex_cut)
        print(json.dumps({"error": "internal invariant failed", "detail": str(err)}),
              file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
