import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclemeet.corpus import cayley_zoo, load_connected_corpus, random_circulants
from cyclemeet.cycles import (
    BudgetExceededError,
    enumerate_longest_cycles,
    is_t_transversal,
    longest_cycle_length,
)
from cyclemeet.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_to_graph6,
    is_connected,
    is_regular,
    petersen_graph,
    prism_graph,
)
from cyclemeet.transitive import (
    GroupPresentation,
    automorphism_mapping,
    cayley,
    circulant,
    elementary_abelian_cube,
    find_isomorphism,
    is_vertex_transitive,
    symmetric_transpositions,
    vertex_orbit_of_zero,
)

from hosts import path_graph
from oracles import is_automorphism


def test_circulant_examples():
    assert circulant(5, {1, 4}) == cycle_graph(5)
    assert circulant(4, {1, 2, 3}) == complete_graph(4)
    g = circulant(6, {2, 3, 4})
    assert is_regular(g) == 3
    assert is_vertex_transitive(g)


def test_circulant_rejects_bad_connection():
    with pytest.raises(ValueError, match="symmetric"):
        circulant(7, {1})
    with pytest.raises(ValueError):
        circulant(5, set())
    with pytest.raises(ValueError):
        circulant(5, {0, 1, 4})


def test_cayley_cyclic():
    gp = GroupPresentation.parse("cyclic 6: 1,5")
    assert cayley(gp) == cycle_graph(6)
    with pytest.raises(ValueError, match="inverse"):
        cayley(GroupPresentation.parse("cyclic 7: 1"))
    with pytest.raises(ValueError, match="identity"):
        cayley(GroupPresentation.parse("cyclic 6: 0,1,5"))


def test_group_order_below_one_is_rejected_by_every_constructor():
    # built in code, an order-0 cyclic group once reached cayley and divided by 0
    for kind, order in (("cyclic", 0), ("cyclic", -3), ("permutation", 0)):
        with pytest.raises(ValueError, match="group order must be at least 1"):
            GroupPresentation(kind, order, (1,))
    with pytest.raises(ValueError, match="group order must be at least 1"):
        GroupPresentation.parse("cyclic 0: 1")
    with pytest.raises(ValueError, match="permutation degree must be at least 1"):
        GroupPresentation.parse("perm 0:")


def test_cayley_s3_transpositions_is_k33_like():
    g = cayley(symmetric_transpositions(3))
    assert g.n == 6 and is_regular(g) == 3
    assert find_isomorphism(g, complete_bipartite(3, 3)) is not None


def test_cayley_cube():
    g = cayley(elementary_abelian_cube())
    assert g.n == 8 and is_regular(g) == 3
    assert find_isomorphism(g, prism_graph(4)) is not None


def test_cayley_perm_parse_and_inverse_closure():
    gp = GroupPresentation.parse("perm 4: (0 1 2 3); (0 1)")
    assert gp.order == 24
    with pytest.raises(ValueError, match="inverse"):
        cayley(gp)  # the 4-cycle generator lacks its inverse
    with pytest.raises(ValueError, match="inverse"):
        cayley(GroupPresentation.parse("perm 3: (0 1 2)"))
    rot = tuple((i + 1) % 5 for i in range(5))
    inv = tuple((i - 1) % 5 for i in range(5))
    gp5 = GroupPresentation(kind="permutation", order=5, generators=(rot,))
    assert cayley(gp5, connection=[rot, inv]) == cycle_graph(5)


def test_cayley_element_mapping_matches_graph():
    from cyclemeet.transitive import _closure, _compose_perm

    gp = symmetric_transpositions(3)
    # cayley() numbers the group elements in sorted order
    elements = _closure(tuple(range(3)), gp.generators)
    g = cayley(gp)
    assert len(elements) == g.n == 6
    index = {e: i for i, e in enumerate(elements)}
    for e in elements:
        for s in gp.generators:
            w = index[_compose_perm(e, s)]
            assert g.has_edge(index[e], w)


def test_cayley_outputs_are_vertex_transitive():
    for g in cayley_zoo():
        if g.n <= 32:
            assert is_vertex_transitive(g)


def test_is_vertex_transitive_cases():
    assert is_vertex_transitive(petersen_graph())
    assert not is_vertex_transitive(path_graph(3))
    for g in random_circulants(8, seed=2, max_n=20):
        assert is_vertex_transitive(g)
    with pytest.raises(ValueError, match="capped"):
        is_vertex_transitive(cycle_graph(70))
    with pytest.raises(ValueError, match="capped"):
        vertex_orbit_of_zero(cycle_graph(70))
    # a graph that is not regular needs no search, whatever its size
    assert not is_vertex_transitive(path_graph(70))


def _connected_circulants(max_n: int):
    """Every connected circulant on 3..max_n vertices, one per connection set."""
    for n in range(3, max_n + 1):
        half = range(1, n // 2 + 1)
        for size in range(1, len(half) + 1):
            for steps in itertools.combinations(half, size):
                if math.gcd(n, *steps) == 1:
                    yield circulant(n, set(steps) | {n - s for s in steps})


def test_one_automorphism_search_finds_the_orbit_of_a_circulant_or_complete_graph(monkeypatch):
    # h's candidates are tried from just above u, so the first map found is
    # translation-like and its cycle through 0 is the whole vertex set; in
    # ascending order it would be an involution through 0 (1,116 searches on
    # these circulants, n - 1 on K_n)
    from cyclemeet import transitive

    calls = []
    original = transitive.automorphism_mapping

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(transitive, "automorphism_mapping", counted)
    graphs = [*_connected_circulants(16), *map(complete_graph, range(3, 12))]
    assert len(graphs) == 701 + 9
    for g in graphs:
        calls.clear()
        assert sorted(vertex_orbit_of_zero(g)) == list(range(g.n)), graph_to_graph6(g)
        assert len(calls) == 1, graph_to_graph6(g)


def test_automorphism_mapping_rejects_a_vertex_out_of_range():
    g = petersen_graph()
    with pytest.raises(ValueError, match="vertex 10 not in graph of order 10"):
        automorphism_mapping(g, 0, 10)
    with pytest.raises(ValueError, match="vertex -1 not in graph of order 10"):
        automorphism_mapping(g, -1, 0)


@st.composite
def circulants_maybe_less_an_edge(draw):
    """A circulant on 5..12 vertices with 1..3 steps, half of the time less one edge."""
    n = draw(st.integers(5, 12))
    # more steps make VF2 slow on the edge-deleted copies
    steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
    edges = sorted(circulant(n, steps | {n - s for s in steps}).edges())
    if draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    return Graph(n, edges)


def _orbit_by_graph_matcher(g: Graph) -> set[int]:
    """Vertices v with an automorphism 0 -> v, by networkx VF2 on marked copies."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def marked(v):
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        nx.set_node_attributes(h, {u: u == v for u in range(g.n)}, "mark")
        return h

    def same_mark(a, b):
        return a["mark"] == b["mark"]

    # an automorphism sends 0 to v iff the copies marked at 0 and at v are isomorphic
    zero = marked(0)
    return {v for v in range(g.n) if GraphMatcher(zero, marked(v), same_mark).is_isomorphic()}


def _check_orbit(g: Graph, orbit: set[int]) -> None:
    """The orbit map names exactly the given orbit, each vertex u with an automorphism 0 -> u."""
    maps = vertex_orbit_of_zero(g)
    assert set(maps) == orbit, graph_to_graph6(g)
    for u, auto in maps.items():
        assert auto(0) == u and auto.preimage(u) == 0, graph_to_graph6(g)
        assert is_automorphism(g, auto.perm), graph_to_graph6(g)
    assert is_vertex_transitive(g) == (len(orbit) == g.n), graph_to_graph6(g)


@settings(max_examples=100, deadline=None)
@given(circulants_maybe_less_an_edge())
def test_orbit_and_transitivity_match_networkx_graph_matcher(g):
    _check_orbit(g, _orbit_by_graph_matcher(g))


def test_orbit_matches_graph_matcher_on_every_connected_graph_to_six_vertices():
    graphs = load_connected_corpus(max_n=6)
    assert len(graphs) == 143  # 1 + 1 + 2 + 6 + 21 + 112
    for g in graphs:
        _check_orbit(g, _orbit_by_graph_matcher(g))


@st.composite
def relabelled_pairs(draw):
    """(g, h): h is g relabelled, and half of the time has one edge moved too.

    g is a random graph, a circulant (half of the time less one edge), or a
    cycle with a random perfect matching added. The last two are near-regular,
    so refinement alone rarely tells a moved edge or a wrong branch apart; a
    matching usually leaves g with few automorphisms, so the search must
    backtrack to find h's relabelling.
    """
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "circulant", "matching"])) if n >= 6 else "random"
    if kind == "circulant":
        steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
        edges = sorted(circulant(n, steps | {n - s for s in steps}).edges())
        if draw(st.booleans()):
            edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif kind == "matching":
        n -= n % 2
        order = draw(st.permutations(range(n)))
        edges = [(v, (v + 1) % n) for v in range(n)]
        edges += [(order[i], order[i + 1]) for i in range(0, n, 2)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    moved = [(perm[u], perm[v]) for u, v in edges]
    if draw(st.booleans()):
        absent = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in moved and (v, u) not in moved]
        if moved and absent:
            moved.pop(draw(st.integers(0, len(moved) - 1)))
            moved.append(draw(st.sampled_from(absent)))
    return Graph(n, edges), Graph(n, moved)


# A triangle and a square, with the labels of the two swapped: refinement
# leaves all 2-regular vertices in one cell, and mapping 0 onto h's first
# vertex of that cell, a square vertex, fails, so h's others must be tried.
@settings(max_examples=200, deadline=None)
@given(relabelled_pairs())
@example((Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
          Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])))
def test_find_isomorphism_matches_networkx_is_isomorphic(pair):
    nx = pytest.importorskip("networkx")
    g, h = pair

    def as_nx(graph):
        out = nx.Graph(list(graph.edges()))
        out.add_nodes_from(range(graph.n))
        return out

    iso = find_isomorphism(g, h)
    assert (iso is not None) == nx.is_isomorphic(as_nx(g), as_nx(h))
    if iso is not None:
        assert sorted(iso.perm) == list(range(g.n))
        assert all(h.has_edge(iso(u), iso(v)) for u, v in g.edges())


def test_automorphism_search_honours_its_node_budget():
    g = petersen_graph()
    message = "search budget of 2 node expansions exceeded"
    with pytest.raises(BudgetExceededError, match=message):
        automorphism_mapping(g, 0, 1, budget=2)
    with pytest.raises(BudgetExceededError, match=message):
        is_vertex_transitive(g, budget=2)
    # 3 nodes each: the root, then two individualizations to a discrete partition
    assert automorphism_mapping(g, 0, 1, budget=3) is not None
    assert is_vertex_transitive(g, budget=3)
    with pytest.raises(ValueError, match="at least 1"):
        automorphism_mapping(g, 0, 1, budget=0)


def test_refinement_counts_neighbours_in_the_splitter():
    # a 4-cycle 0-3-1-4 with a pendant vertex 2 at 4, rooted at 0 against 0
    # or 1: the rest cell splits by how many neighbours 1, 2, 3, 4 have in it
    # (2, 1, 1, 2), the singleton splits both parts, and the root is
    # discrete; counting each neighbour as one splits nothing by the rest
    # cell, and the search must branch
    g = Graph(5, [(0, 3), (3, 1), (1, 4), (4, 0), (4, 2)])
    assert automorphism_mapping(g, 0, 0, budget=1).perm == (0, 1, 2, 3, 4)
    assert automorphism_mapping(g, 0, 1, budget=1).perm == (1, 0, 2, 3, 4)


def test_automorphism_validity_and_sampling():
    g = petersen_graph()
    for v in range(1, 6):
        a = automorphism_mapping(g, 0, v)
        assert a is not None and a(0) == v
        assert is_automorphism(g, a.perm)
        assert is_automorphism(g, a.inverse().perm)
    assert not is_automorphism(g, [1, 0] + list(range(2, 10)))


def test_find_isomorphism_relabels():
    g = petersen_graph()
    relabel = [3, 4, 0, 1, 2, 8, 9, 5, 6, 7]
    from cyclemeet.graphs import Graph

    h = Graph(10, [(relabel[u], relabel[v]) for u, v in g.edges()])
    iso = find_isomorphism(g, h)
    assert iso is not None
    assert all(h.has_edge(iso(u), iso(v)) for u, v in g.edges())
    assert find_isomorphism(g, cycle_graph(10)) is None


def test_find_isomorphism_rejects_a_discrete_partition_whose_map_fails():
    # same degree sequence, not isomorphic: the joint refinement reaches a
    # discrete partition on both sides, and only the row-image check rejects it
    g = Graph(8, [(0, 1), (0, 3), (0, 6), (0, 7), (1, 5), (2, 4), (3, 4), (3, 7), (4, 5)])
    h = Graph(8, [(0, 3), (1, 4), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (3, 7), (6, 7)])
    assert find_isomorphism(g, h) is None


def test_devos_inequality_on_transversals():
    # c(G) * |A| >= t * n for verified t-transversals of vertex-transitive graphs
    for g in [cycle_graph(8), petersen_graph(), circulant(10, {1, 9, 5})]:
        assert is_connected(g) and is_vertex_transitive(g)
        cs = enumerate_longest_cycles(g)
        a = cs.cycles[0].vertex_set()
        t = 1
        assert is_t_transversal(g, cs, a, t)
        assert cs.length * len(a) >= t * g.n


def test_babai_bound_on_samples():
    for g in random_circulants(10, seed=4, max_n=24):
        c = longest_cycle_length(g)
        assert c * c >= 3 * g.n
        assert c >= math.isqrt(3 * g.n - 1) + 1 or c * c >= 3 * g.n
