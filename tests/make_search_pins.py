"""Write tests/data/search_pins.json: the pinned outputs of the longest-cycle search.

Run from the repository root with ``PYTHONPATH=src python tests/make_search_pins.py``.
Every field but ``nodes`` is an output that any exact bound must reproduce:
c(G), the witness, the kept cycles and ``truncated``. ``nodes`` is an upper
bound, so a weaker bound fails the pin. The outputs were first pinned with
the plain reachability bound and are unchanged by degree-2 peeling, by the
slack-zero forced-edge rule, by closing each cycle one way and by the
slack-zero memo, which skips a remembered subtree that closed nothing and
replays one that closed cycles; the node counts are those of all four, with
the memo kept per anchor and consulted at every slack-zero child, at every
limit. The length search is the search at limit 1; its records pin c(G),
its witness and its node count, list no cycles and read ``truncated`` false.
Closing one way can move the witness of other graphs, to the first cycle of
the same length read the canonical way round, but moves none pinned here.
Regenerate the file only for a change that lowers node counts, after
checking that no other field moved.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from cyclemeet.cycles import DEFAULT_BUDGET, _Search
from cyclemeet.graphs import (
    Graph,
    complete_graph,
    graph_from_graph6,
    graph_to_graph6,
    grid_graph,
    petersen_graph,
    prism_graph,
    wheel_graph,
)
from cyclemeet.harness import CorpusSpec, corpus_instances

PINS = Path(__file__).parent / "data" / "search_pins.json"
FULL_SET_CAP = 5000
LIMITS = (7, 100)


def pin_graphs() -> list[tuple[str, Graph]]:
    named = [
        ("petersen", petersen_graph()),
        ("K7", complete_graph(7)),
        ("prism6", prism_graph(6)),
        ("wheel7", wheel_graph(7)),
        ("grid3x4", grid_graph(3, 4)),
    ]
    instances = corpus_instances(CorpusSpec.parse("circulants:count=20,max_n=16", seed=1))
    return named + [(name, f.g) for name, f in instances]


def search_facts(g: Graph, mode: str) -> dict:
    """One search's outputs; mode is "length" or an enumeration limit ("none", "7", ...)."""
    length = mode == "length"
    limit: Optional[int] = 1 if length else None if mode == "none" else int(mode)
    s = _Search(g, DEFAULT_BUDGET, limit=limit).run()
    # a length search keeps its witness alone, and its records list no cycles
    return {
        "c": s.best,
        "witness": list(s.found[0]),
        "cycles": [] if length else [list(c) for c in sorted(s.found)],
        "truncated": s.truncated and not length,
        "nodes": s.nodes,
    }


def pin_modes(g: Graph) -> list[str]:
    modes = ["length"] + [str(limit) for limit in LIMITS]
    if not _Search(g, DEFAULT_BUDGET, limit=FULL_SET_CAP + 1).run().truncated:
        modes.append("none")
    return modes


def main() -> None:
    records = []
    for name, g in pin_graphs():
        searches = {mode: search_facts(g, mode) for mode in pin_modes(g)}
        records.append({"name": name, "graph6": graph_to_graph6(g), "searches": searches})
        assert graph_from_graph6(records[-1]["graph6"]) == g
    PINS.write_text(json.dumps(records, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
