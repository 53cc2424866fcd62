"""Opt-in deep sweep: every longest-cycle pair of every stored graph.

Set CYCLEMEET_EXHAUSTIVE=1 to run (about a minute). The regular acceptance
suite covers the required corpora; this pushes the same checks across all
~1.7M pairs of the full n <= 8 corpus, and checks the connectivity of every
stored graph against the all-pairs oracle.
"""

import itertools
import os

import pytest

from cyclemeet.auxgraph import build_aux, l_set, pairwise_noncrossing, type_census
from cyclemeet.corpus import is_biconnected, load_connected_corpus
from cyclemeet.cycles import enumerate_longest_cycles, is_t_transversal
from cyclemeet.exchange import improve_by_exchange
from cyclemeet.flow import edge_bound_holds, separator_bound_holds, xy_separator
from cyclemeet.graphs import vertex_connectivity

from oracles import vertex_connectivity_by_subsets

pytestmark = pytest.mark.skipif(
    not os.environ.get("CYCLEMEET_EXHAUSTIVE"),
    reason="set CYCLEMEET_EXHAUSTIVE=1 for the full n<=8 pairwise sweep",
)


def test_every_pair_in_the_stored_corpus():
    pairs = 0
    for g in load_connected_corpus(8):
        if g.n < 4:
            continue
        try:
            cs = enumerate_longest_cycles(g, limit=80)
        except ValueError:
            continue
        if cs.truncated:
            continue
        two_conn = is_biconnected(g)
        for x, y in itertools.combinations(cs.cycles, 2):
            pairs += 1
            shared = x.vertex_set() & y.vertex_set()
            m = len(shared)
            rep = xy_separator(g, x, y)
            assert separator_bound_holds(len(rep.cut), m), (g, x, y)
            if two_conn:
                assert shared, (g, x, y)
                assert is_t_transversal(g, cs, rep.cut, 1), (g, x, y)
            if shared and rep.witness.source_set and rep.witness.target_set:
                # F is built from the separator's own family, the flow in G - M
                f = build_aux(g, x, y, rep.witness)  # raises on a same-pair event
                assert len(rep.cut) == m + f.edge_count(), (g, x, y)
                assert type_census(f)[(0, 0)] == 0, (g, x, y)
                assert pairwise_noncrossing(sorted(l_set(f))), (g, x, y)
                assert edge_bound_holds(f.edge_count(), f.m), (g, x, y)
            assert improve_by_exchange(g, x, y) is None, (g, x, y)
    assert pairs > 1_500_000


def test_connectivity_of_every_stored_graph():
    checked = 0
    for g in load_connected_corpus(8):
        if g.n >= 2:
            assert vertex_connectivity(g) == vertex_connectivity_by_subsets(g), g
            checked += 1
    assert checked == 12_112
