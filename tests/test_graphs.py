import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeet.corpus import load_connected_corpus, vertex_transitive_corpus
from cyclemeet.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_graph6,
    graph_to_graph6,
    is_connected,
    is_forest,
    is_regular,
    mask_of,
    petersen_graph,
    vertex_connectivity,
    wheel_graph,
)

from cyclemeet.transitive import circulant, vertex_orbit_of_zero

from hosts import path_graph
from oracles import as_networkx, vertex_connectivity_by_subsets


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(200, [])


def test_vertex_cap_holds_for_construction_and_graph6():
    assert Graph(128).n == 128
    with pytest.raises(ValueError, match="above the cap of 128"):
        Graph(129)
    assert graph_from_graph6(graph_to_graph6(cycle_graph(128))) == cycle_graph(128)
    # the edgeless graph on 129 vertices: long header, then C(129, 2) = 8256
    # zero bits in 1376 body bytes
    with pytest.raises(ValueError, match="above the cap of 128"):
        graph_from_graph6("~?A@" + "?" * 1376)


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_adjacency_symmetry_everywhere():
    for g in [petersen_graph(), complete_graph(5), cycle_graph(7), path_graph(4)]:
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)


def test_is_connected_cases():
    assert is_connected(cycle_graph(5))
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_connected(two_triangles)
    assert not is_connected(Graph(3))
    assert is_connected(Graph(0))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.data())
def test_is_forest_matches_networkx_on_random_graphs(n, data):
    # at most n edges, so forests of several trees and graphs with one or
    # two cycles are both drawn often
    nx = pytest.importorskip("networkx")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    g = Graph(n, edges)
    assert is_forest(g) == nx.is_forest(as_networkx(g))


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete_graph(4)) == 3
    assert vertex_connectivity(cycle_graph(5)) == 2
    assert vertex_connectivity(petersen_graph()) == 3
    assert vertex_connectivity(path_graph(3)) == 1
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(1))


def test_vertex_connectivity_vs_networkx():
    nx = pytest.importorskip("networkx")
    import random

    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(4, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        if n >= 2:
            assert vertex_connectivity(g) == nx.node_connectivity(h)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.data())
def test_vertex_connectivity_matches_networkx_on_random_graphs(n, data):
    nx = pytest.importorskip("networkx")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    assert vertex_connectivity(Graph(n, edges)) == nx.node_connectivity(h)


def test_vertex_connectivity_matches_subset_oracle_up_to_seven_vertices():
    checked = 0
    for g in load_connected_corpus(max_n=7):
        if g.n >= 2:
            kappa = vertex_connectivity_by_subsets(g)
            assert vertex_connectivity(g) == kappa, graph_to_graph6(g)
            # with the orbit of 0, on every graph, vertex-transitive or not
            assert vertex_connectivity(g, vertex_orbit_of_zero(g)) == kappa, graph_to_graph6(g)
            checked += 1
    assert checked == 995


def test_orbit_rule_keeps_the_neighbour_pairs_of_a_small_orbit():
    # 4-regular with κ = 3, and 0's orbit {0, 1, 2} is no larger than its degree:
    # every minimum cut may hold the whole orbit, so the neighbour pairs stay
    g = graph_from_graph6("FFzvO")
    maps = vertex_orbit_of_zero(g)
    assert is_regular(g) == 4 and sorted(maps) == [0, 1, 2]
    assert vertex_connectivity(g, maps) == vertex_connectivity_by_subsets(g) == 3


def test_vertex_connectivity_with_the_orbit_matches_networkx_on_the_vt_corpus():
    nx = pytest.importorskip("networkx")
    graphs = vertex_transitive_corpus()
    assert len(graphs) == 200
    for g in graphs:
        assert vertex_connectivity(g, vertex_orbit_of_zero(g)) == nx.node_connectivity(
            as_networkx(g)), graph_to_graph6(g)


@st.composite
def circulants_maybe_less_an_edge(draw):
    """A circulant on 5..24 vertices with 1..4 steps, half of the time less one edge."""
    n = draw(st.integers(5, 24))
    steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    edges = sorted(circulant(n, steps | {n - s for s in steps}).edges())
    if draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    return Graph(n, edges)


@settings(max_examples=100, deadline=None)
@given(circulants_maybe_less_an_edge())
def test_vertex_connectivity_with_the_orbit_matches_networkx_on_circulants(g):
    nx = pytest.importorskip("networkx")
    kappa = nx.node_connectivity(as_networkx(g))
    assert vertex_connectivity(g, vertex_orbit_of_zero(g)) == kappa
    assert vertex_connectivity(g) == kappa


def test_vertex_connectivity_runs_few_local_flows(monkeypatch):
    from cyclemeet import flow

    calls = []
    local = flow.local_vertex_connectivity

    def counting_local(*args):
        calls.append(args)
        return local(*args)

    monkeypatch.setattr(flow, "local_vertex_connectivity", counting_local)
    # (n - 1 - d) flows to the non-neighbours of a least-degree vertex plus
    # C(d, 2) among its neighbours: 9 on Petersen, against its 30 non-adjacent
    # pairs; on a wheel the hub would need C(n - 1, 2) - (n - 1) instead
    for g, kappa in [(petersen_graph(), 3), (wheel_graph(12), 3)]:
        calls.clear()
        assert vertex_connectivity(g) == kappa
        d = min(g.degree(v) for v in range(g.n))
        assert 0 < len(calls) <= (g.n - 1 - d) + d * (d - 1) // 2
    # with Petersen's orbit of 0 (all 10 vertices, more than its degree 3) no
    # neighbour pair is needed, and its 6 non-neighbours pair off into 2 flows
    calls.clear()
    g = petersen_graph()
    assert vertex_connectivity(g, vertex_orbit_of_zero(g)) == 3
    assert len(calls) == 2 and all(s == 0 for _, s, *_ in calls)


def test_vertex_connectivity_at_most_min_degree():
    for g in [petersen_graph(), cycle_graph(6), complete_graph(5)]:
        assert vertex_connectivity(g) <= min(g.degree(v) for v in range(g.n))


def test_petersen_connectivity_by_subset_brute_force():
    import itertools

    g = petersen_graph()
    full = g.full_mask
    for size in range(3):
        for cut in itertools.combinations(range(10), size):
            live = full
            for v in cut:
                live &= ~(1 << v)
            start = live & -live
            assert g.reach_mask(start, live) == live, "no cut of size < 3 exists"
    live = full & ~sum(1 << v for v in (1, 4, 5))  # N(0): isolates vertex 0
    start = live & -live
    assert g.reach_mask(start, live) != live
    assert vertex_connectivity(g) == 3


def test_neighborhood():
    c5 = cycle_graph(5)
    assert c5.neighbors_of_mask(mask_of({0})) == mask_of({1, 4})
    assert c5.neighbors_of_mask(c5.full_mask) == c5.full_mask
    outer = mask_of(range(5))
    assert petersen_graph().neighbors_of_mask(outer) & ~outer == mask_of(range(5, 10))


def test_is_regular():
    assert is_regular(cycle_graph(5)) == 2
    assert is_regular(path_graph(3)) is None
    assert is_regular(petersen_graph()) == 3


# -- formats -------------------------------------------------------------


def test_graph6_known_encodings():
    # frozen reference strings for the standard format
    assert graph_to_graph6(complete_graph(4)) == "C~"
    assert graph_to_graph6(cycle_graph(5)) == "Dhc"
    assert graph_to_graph6(petersen_graph()) == "IheA@GUAo"


def test_graph6_roundtrip_small():
    for g in [Graph(0), Graph(1), Graph(2, [(0, 1)]), complete_graph(7), petersen_graph()]:
        assert graph_from_graph6(graph_to_graph6(g)) == g
    assert graph_to_graph6(Graph(0)) == "?"


def test_graph6_large_n_header():
    g = cycle_graph(70)
    text = graph_to_graph6(g)
    assert text.startswith("~")
    assert graph_from_graph6(text) == g


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        graph_from_graph6("")
    with pytest.raises(ValueError):
        graph_from_graph6("C~~~")  # wrong body length


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.data())
def test_graph6_roundtrip_random(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = Graph(n, picks)
    assert graph_from_graph6(graph_to_graph6(g)) == g


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 62), st.data())
def test_graph6_matches_networkx_encoder(n, data):
    nx = pytest.importorskip("networkx")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pair for k, pair in enumerate(pairs) if picks >> k & 1]
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    text = graph_to_graph6(Graph(n, edges))
    assert text == nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
    assert graph_from_graph6(text) == Graph(n, edges)
