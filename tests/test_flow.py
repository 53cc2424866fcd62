import hashlib
import json
import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeet.auxgraph import SameSegmentPairError, pair_aux
from cyclemeet.cli import main
from cyclemeet.corpus import load_connected_corpus, two_triangles_shared_vertex
from cyclemeet.cycles import CycleEmbedding, enumerate_longest_cycles, is_t_transversal
from cyclemeet.flow import (
    PathFamily,
    local_vertex_connectivity,
    max_disjoint_paths,
    min_vertex_cut,
    separator_bound_holds,
    xy_separator,
)
from cyclemeet.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_graph6,
    grid_graph,
    is_forest,
    petersen_graph,
    vertex_connectivity,
)
from cyclemeet.harness import PAIR_LIMIT

from hosts import menger_instances
from oracles import as_networkx, min_vertex_cut_by_subsets


def bridge_graph():
    return Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])


def test_bridge_has_one_path():
    fam = max_disjoint_paths(bridge_graph(), {0, 1, 2}, {3, 4, 5})
    assert len(fam) == 1
    assert fam.paths[0][0] in {0, 1, 2} and fam.paths[0][-1] in {3, 4, 5}
    rep = min_vertex_cut(bridge_graph(), {0, 1, 2}, {3, 4, 5})
    assert len(rep.cut) == 1


def test_grid_columns_three_paths():
    g = grid_graph(3, 3)
    fam = max_disjoint_paths(g, {0, 3, 6}, {2, 5, 8})
    assert len(fam) == 3
    rep = min_vertex_cut(g, {0, 3, 6}, {2, 5, 8})
    assert len(rep.cut) == 3


def test_singleton_terminals_follow_set_menger():
    # every (a,b)-path starts at the sole source, so one path and a cut of one
    fam = max_disjoint_paths(complete_graph(4), {0}, {3})
    assert len(fam) == 1
    rep = min_vertex_cut(complete_graph(4), {0}, {3})
    assert len(rep.cut) == 1
    # internally disjoint paths are the local-connectivity notion instead
    assert local_vertex_connectivity(complete_graph(4), 0, 3) == 3


def test_overlapping_terminals_rejected():
    with pytest.raises(ValueError, match="overlapping terminals"):
        max_disjoint_paths(cycle_graph(5), {0, 1}, {1, 2})


def test_family_invariants_validated():
    g = bridge_graph()
    fam = max_disjoint_paths(g, {0, 1}, {4, 5})
    fam.validate(g)
    bad = PathFamily(paths=((0, 2, 3),), source_set=frozenset({0, 1}), target_set=frozenset({3}))
    bad.validate(g)
    with pytest.raises(ValueError):
        PathFamily(
            paths=((0, 2, 3),), source_set=frozenset({0, 2}), target_set=frozenset({3})
        ).validate(g)


def test_menger_equality_and_soundness_random():
    for g, a, b in menger_instances(count=120, seed=31, max_n=24):
        fam = max_disjoint_paths(g, a, b)
        rep = min_vertex_cut(g, a, b)
        fam.validate(g)
        rep.witness.validate(g)
        assert len(rep.cut) == rep.max_disjoint_paths == len(fam)


def test_min_cut_matches_subset_oracle_small():
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        n = rng.randrange(4, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        g = Graph(n, edges)
        verts = list(range(n))
        rng.shuffle(verts)
        a = frozenset(verts[:2])
        b = frozenset(verts[2:4])
        rep = min_vertex_cut(g, a, b)
        assert len(rep.cut) == min_vertex_cut_by_subsets(g, a, b)
        checked += 1


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.data())
def test_min_cut_size_matches_networkx_between_super_terminals(n, data):
    nx = pytest.importorskip("networkx")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    order = data.draw(st.permutations(range(n)))
    a_size = data.draw(st.integers(1, n - 1))
    b_size = data.draw(st.integers(1, n - a_size))
    a, b = order[:a_size], order[a_size:a_size + b_size]
    h = nx.Graph(edges)
    h.add_nodes_from(range(n))
    h.add_edges_from([("s", v) for v in a] + [(v, "t") for v in b])
    assert len(min_vertex_cut(Graph(n, edges), a, b).cut) == len(nx.minimum_node_cut(h, "s", "t"))


def test_xy_separator_shared_vertex_host():
    g = two_triangles_shared_vertex()
    x = CycleEmbedding.from_sequence(g, [0, 1, 2])
    y = CycleEmbedding.from_sequence(g, [2, 3, 4])
    rep = xy_separator(g, x, y)
    assert rep.cut == {2} and rep.m == 1
    assert rep.bound_satisfied
    assert is_t_transversal(g, enumerate_longest_cycles(g), rep.cut, 1)


def test_xy_separator_same_cycle_degenerate():
    g = cycle_graph(5)
    x = CycleEmbedding.from_sequence(g, range(5))
    rep = xy_separator(g, x, x)
    assert rep.cut == frozenset(range(5)) and rep.m == 5
    assert rep.max_disjoint_paths == 0 and rep.bound_satisfied


def test_xy_separator_petersen_bound():
    cs = enumerate_longest_cycles(petersen_graph())
    x, y = cs.cycles[0], cs.cycles[1]
    rep = xy_separator(petersen_graph(), x, y)
    assert rep.m is not None and rep.m >= 3
    assert separator_bound_holds(len(rep.cut), rep.m)
    assert is_t_transversal(petersen_graph(), cs, rep.cut, 1)


def _separator_pairs():
    """The first PAIR_LIMIT pairs of every exhaustive7 cycle set, then the E?~o pair."""
    for g in load_connected_corpus(max_n=7):
        if not is_forest(g):
            for x, y in islice(combinations(enumerate_longest_cycles(g).cycles, 2), PAIR_LIMIT):
                yield g, x, y
    g = graph_from_graph6("E?~o")
    yield g, CycleEmbedding.from_sequence(g, [0, 4, 1, 5]), CycleEmbedding.from_sequence(g, [2, 4, 3, 5])


def test_xy_separator_is_m_plus_a_minimum_cut_of_g_minus_m():
    # networkx oracle: the cut is M plus a minimum (X-M, Y-M) node cut of
    # G - M, found between a super-source on X - M and a super-sink on Y - M,
    # and it separates the two remainders in G itself
    nx = pytest.importorskip("networkx")
    flows = 0
    for g, x, y in _separator_pairs():
        rep = xy_separator(g, x, y)
        shared = x.vertex_set() & y.vertex_set()
        a, b = x.vertex_set() - shared, y.vertex_set() - shared
        h = as_networkx(g)
        h.add_nodes_from("st")
        h.add_edges_from([("s", v) for v in a] + [(v, "t") for v in b])
        inner = 0
        if a and b:
            inner = len(nx.minimum_node_cut(h.subgraph(set(h) - shared), "s", "t"))
            flows += 1
        assert shared <= rep.cut and len(rep.cut) == len(shared) + inner, (g.n, x, y)
        assert not nx.has_path(h.subgraph(set(h) - rep.cut), "s", "t"), (g.n, x, y)
    # the 792 exhaustive7 pairs with two nonempty remainders (5 of them
    # disjoint, cut in all of G), and E?~o
    assert flows == 793


def test_cli_separator_cuts_two_cycles_at_their_shared_vertices(tmp_path, capsys):
    # X = 0-4-1-5 and Y = 2-4-3-5 meet in M = {4, 5}, which alone separates them
    path = tmp_path / "e.g6"
    path.write_text("E?~o\n")
    assert main(["separator", "--in", str(path), "--x", "0,4,1,5", "--y", "2,4,3,5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["cut"], rep["m"], rep["max_disjoint_paths"], rep["paths"]) == ([4, 5], 2, 0, [])


def test_separator_report_json():
    g = two_triangles_shared_vertex()
    x = CycleEmbedding.from_sequence(g, [0, 1, 2])
    y = CycleEmbedding.from_sequence(g, [2, 3, 4])
    payload = xy_separator(g, x, y).to_json_dict()
    assert payload["cut"] == [2]
    assert payload["m"] == 1
    assert payload["bound_satisfied"] is True
    assert "paths" in payload


def test_separator_bound_is_exact_at_edge():
    # lhs <= 0 short-circuit plus exact squared comparison
    assert separator_bound_holds(0, 0)
    assert separator_bound_holds(1, 1)  # 1 <= sqrt(10) + 1.5
    assert separator_bound_holds(4, 1)
    assert not separator_bound_holds(5, 1)  # 5 > sqrt(10) + 1.5 ~ 4.66
    # the formula gives 0 for m = 0, where one cut vertex is the ceiling
    assert separator_bound_holds(1, 0)
    assert not separator_bound_holds(2, 0)


def test_local_connectivity_matches_global():
    for g in [petersen_graph(), cycle_graph(6), grid_graph(3, 3)]:
        k = vertex_connectivity(g)
        best = min(
            local_vertex_connectivity(g, s, t)
            for s in range(g.n)
            for t in range(s + 1, g.n)
            if not g.has_edge(s, t)
        )
        assert k == best


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.data())
def test_local_connectivity_matches_networkx(n, data):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    s, t = data.draw(st.sampled_from(pairs))
    g = Graph(n, edges)
    h = nx.Graph(edges)
    h.add_nodes_from(range(n))
    if g.has_edge(s, t):
        # the direct edge is one path; the others avoid it
        h.remove_edge(s, t)
        expected = 1 + local_node_connectivity(h, s, t)
    else:
        expected = local_node_connectivity(h, s, t)
    assert local_vertex_connectivity(g, s, t) == expected
    cutoff = data.draw(st.integers(1, expected + 1))
    assert local_vertex_connectivity(g, t, s, cutoff) == min(expected, cutoff)


def test_local_connectivity_stops_at_the_cutoff():
    # pairs whose paths are mostly long, so the cutoff bites inside the flow
    for g in [petersen_graph(), cycle_graph(8), grid_graph(3, 4)]:
        for s in range(g.n):
            for t in range(s + 1, g.n):
                full = local_vertex_connectivity(g, s, t)
                for cutoff in range(1, full + 2):
                    assert local_vertex_connectivity(g, s, t, cutoff) == min(full, cutoff)


def test_local_connectivity_needs_two_vertices_of_the_graph():
    g = petersen_graph()
    with pytest.raises(ValueError):
        local_vertex_connectivity(g, 2, 2)
    with pytest.raises(ValueError):
        local_vertex_connectivity(g, 0, 10)


def test_local_connectivity_rejects_the_vertex_just_past_the_graph():
    g = petersen_graph()
    for s, t in ((g.n, 0), (0, g.n), (-1, 0)):
        with pytest.raises(ValueError, match=f"vertices {s}, {t} not both in graph of order 10"):
            local_vertex_connectivity(g, s, t)


def test_allowed_mask_restricts_interiors():
    g = bridge_graph()
    # removing the bridge head from the allowed set kills the only path
    fam = max_disjoint_paths(g, {0, 1}, {4, 5}, allowed={0, 1, 4, 5})
    assert len(fam) == 0


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_path_families_and_cuts_are_pinned():
    # which maximum family the flow finds is a choice the aux graphs and the
    # certificates read; these digests keep it from drifting unnoticed
    rng = random.Random(47)
    lines = []
    for g, a, b in menger_instances(count=400, seed=23, max_n=24):
        allowed = [v for v in range(g.n) if rng.random() < 0.7]
        fam = max_disjoint_paths(g, a, b, allowed)
        rep = min_vertex_cut(g, a, b, allowed)
        lines.append(repr((fam.paths, rep.witness.paths, sorted(rep.cut))))
    assert _digest(lines) == "8fba7dc9cdac8dfdd0812668d12a53c3976644a8221713da63872f37f461edf1"


def test_pair_aux_graphs_are_pinned_on_exhaustive7():
    # the first PAIR_LIMIT pairs of each cycle set, as the harness checks them;
    # most of these aux graphs are empty, so each pair's separator is pinned too
    lines = []
    for g in load_connected_corpus(max_n=7):
        if is_forest(g):
            continue
        cs = enumerate_longest_cycles(g)
        for x, y in islice(combinations(cs.cycles, 2), PAIR_LIMIT):
            rep = xy_separator(g, x, y)
            lines.append(repr((sorted(rep.cut), rep.witness.paths)))
            try:
                f = pair_aux(g, x, y)
            except SameSegmentPairError as err:
                lines.append(f"same {err}")
                continue
            lines.append("none" if f is None else repr((
                sorted(f.edges), sorted((e, (p[0], p[-1])) for e, p in f.witness.items()))))
    assert _digest(lines) == "149995eeaaaa2960804162c28cd9fcb39fa4815f402b25e49ea70728d153c979"
