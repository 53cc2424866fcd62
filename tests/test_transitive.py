import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeet.corpus import (
    cayley_zoo,
    load_connected_corpus,
    random_circulants,
    vertex_transitive_corpus,
)
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
    graph_from_graph6,
    graph_to_graph6,
    is_connected,
    is_regular,
    petersen_graph,
    prism_graph,
)
from cyclemeet.transitive import (
    _closure,
    _parse_cycles,
    _translation as transitive_translation,
    automorphism_mapping,
    cayley,
    circulant,
    circulant_hamiltonian_cycle,
    elementary_abelian_cube,
    is_vertex_transitive,
    parse_group,
    symmetric_transpositions,
    vertex_orbit_of_zero,
)

from hosts import path_graph, relabelled, symmetric_connection_sets
from oracles import as_networkx, is_automorphism


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
    assert cayley(*parse_group("cyclic 6: 1,5")) == cycle_graph(6)
    with pytest.raises(ValueError, match="inverse"):
        cayley(*parse_group("cyclic 7: 1"))
    with pytest.raises(ValueError, match="identity"):
        cayley(*parse_group("cyclic 6: 0,1,5"))
    with pytest.raises(ValueError, match="empty connection set"):
        cayley(*parse_group("cyclic 6:"))


def test_cyclic_group_is_the_rotation_group_with_generator_plus_one():
    rotations = {s: tuple((x + s) % 6 for x in range(6)) for s in (1, 2, 4, 5)}
    assert parse_group("cyclic 6: 2,4") == ((rotations[1],), (rotations[2], rotations[4]))
    assert parse_group("cyclic 6: -1 1") == ((rotations[1],), (rotations[5], rotations[1]))


def test_cyclic_cayley_graph_is_the_circulant_for_every_connection_set_to_16():
    # the rotation by k is the only element whose tuple starts with k, so it
    # is vertex k, and its neighbours are the rotations by k + s
    checked = 0
    for n, steps in symmetric_connection_sets(16):
        text = f"cyclic {n}: " + ",".join(map(str, steps))
        assert cayley(*parse_group(text)) == circulant(n, steps), text
        checked += 1
    assert checked == 749  # 2^floor(n/2) - 1 sets for each n = 2..16


@pytest.mark.parametrize("text", ["cyclic 0: 1", "cyclic -3: 1", "perm 0:"])
def test_group_degree_below_one_is_rejected_by_the_parser(text):
    # an order-0 cyclic group once reached cayley and divided by 0
    with pytest.raises(ValueError, match="group degree must be at least 1"):
        parse_group(text)


def test_group_of_degree_one_is_accepted():
    # the one permutation of one point, as either kind
    assert parse_group("cyclic 1:") == (((0,),), ())
    assert parse_group("perm 1: (0)") == (((0,),), ((0,),))
    assert _closure((0,), [(0,)]) == [(0,)]


def test_group_order_cap_is_the_vertex_cap():
    # Z_128 as the rotation group of a 128-gon has exactly VERTEX_CAP elements,
    # and its Cayley graph on the rotations by 1 and -1 is the 128-cycle;
    # Z_129 has one element too many
    def rotations(n):
        forward = " ".join(map(str, range(n)))
        backward = " ".join(map(str, reversed(range(n))))
        return f"perm {n}: ({forward}); ({backward})"

    assert cayley(*parse_group(rotations(128))) == cycle_graph(128)
    with pytest.raises(ValueError, match="^group order exceeds cap of 128$"):
        cayley(*parse_group(rotations(129)))


def test_a_perm_group_costs_its_text_not_its_degree():
    # a transposition of 10^8 points is stored on the two it moves; a
    # permutation of all of them would take gigabytes
    tracemalloc.start()
    try:
        assert cayley(*parse_group("perm 100000000: (0 1)")) == complete_graph(2)
        assert parse_group("perm 100000000: (99999999 5)") == (((1, 0),), ((1, 0),))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chunk", [
    "((0 1))",  # nested
    "(0 1))",  # unbalanced
    ")(0 1)",
    "(0 1",  # unclosed
    "0 (1 2)",  # a digit outside parentheses
    "(1 2) 0",
    "(0\t1)",  # a tab
    "(0 x)",  # a letter
    "(0 1);",
    "(0 ²)",  # a superscript, which str.isdigit takes and int() does not
])
def test_malformed_cycle_notation_is_refused(chunk):
    with pytest.raises(ValueError):
        _parse_cycles(chunk, 5)


@pytest.mark.parametrize("chunk, images", [
    ("()", {}),
    (", (0 1) ,", {0: 1, 1: 0}),
    ("(0)", {0: 0}),
    ("(٣,1)", {3: 1, 1: 3}),  # an Arabic-Indic three, which int() reads
    ("(0 1)(2,3 4)", {0: 1, 1: 0, 2: 3, 3: 4, 4: 2}),
    ("", {}),
])
def test_cycle_notation_edge_forms(chunk, images):
    assert _parse_cycles(chunk, 5) == images


def test_malformed_cycle_notation_message_is_bounded():
    # a long chunk is not echoed back whole
    with pytest.raises(ValueError) as err:
        _parse_cycles("(0 1) " * 100_000 + "x", 5)
    assert len(str(err.value)) < 200


def _cycle_text(perm: tuple[int, ...]) -> str:
    """perm in disjoint cycle notation, its fixed points left out; ``(0)`` for the identity."""
    text, seen = "", set()
    for start in range(len(perm)):
        if perm[start] != start and start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            text += "(" + " ".join(map(str, cycle)) + ")"
    return text or "(0)"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_perm_group_padded_with_fixed_points_has_the_full_degree_cayley_graph(data):
    # a group on m <= 5 points placed anywhere among n: each generator and its
    # inverse, as full permutations of 0..n-1 and as parse_group's text
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(m, 12))
    points = data.draw(st.permutations(range(n)))[:m]
    full = []
    for small in data.draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3)):
        for perm in (small, [small.index(i) for i in range(m)]):
            padded = list(range(n))
            for i, j in enumerate(perm):
                padded[points[i]] = points[j]
            full.append(tuple(padded))
    text = f"perm {n}: " + "; ".join(map(_cycle_text, full))

    def graph_or_error(build):
        try:
            return build()
        except ValueError as err:  # the identity among the generators
            return str(err)

    assert graph_or_error(lambda: cayley(*parse_group(text))) == graph_or_error(
        lambda: cayley(full)), text


def test_cayley_rejects_a_connection_element_outside_the_group():
    three_cycle = (1, 2, 0, 3)
    swap = (0, 1, 3, 2)  # moves 3, which the 3-cycle fixes
    with pytest.raises(ValueError, match="connection element outside the group"):
        cayley((three_cycle,), connection=[swap])
    with pytest.raises(ValueError, match="permutation group needs generators"):
        cayley((), connection=[swap])
    with pytest.raises(ValueError, match="empty connection set"):
        cayley((swap,), connection=[])


def test_cayley_s3_transpositions_is_k33_like():
    g = cayley(symmetric_transpositions(3))
    assert g.n == 6 and is_regular(g) == 3
    nx = pytest.importorskip("networkx")
    assert nx.is_isomorphic(as_networkx(g), as_networkx(complete_bipartite(3, 3)))


def test_cayley_cube():
    g = cayley(elementary_abelian_cube())
    assert g.n == 8 and is_regular(g) == 3
    nx = pytest.importorskip("networkx")
    assert nx.is_isomorphic(as_networkx(g), as_networkx(prism_graph(4)))


def test_cayley_perm_parse_and_inverse_closure():
    gens, conn = parse_group("perm 4: (0 1 2 3); (0 1)")
    assert gens == conn == ((1, 2, 3, 0), (1, 0, 2, 3))
    # the named points 2 < 5 < 7 < 8 become 0 < 1 < 2 < 3, the fixed point 6 too
    assert parse_group("perm 9: (2 5 7 8); (2 5)") == (gens, conn)
    assert parse_group("perm 9: (6); (2 5 8)") == (((0, 1, 2, 3), (1, 3, 2, 0)),) * 2
    assert len(_closure(tuple(range(4)), gens)) == 24
    with pytest.raises(ValueError, match="inverse"):
        cayley(gens, conn)  # the 4-cycle generator lacks its inverse
    with pytest.raises(ValueError, match="inverse"):
        cayley(*parse_group("perm 3: (0 1 2)"))
    rot = tuple((i + 1) % 5 for i in range(5))
    inv = tuple((i - 1) % 5 for i in range(5))
    assert cayley((rot,), connection=[rot, inv]) == cycle_graph(5)


def test_cayley_element_mapping_matches_graph():
    from cyclemeet.transitive import _compose_perm

    gens = symmetric_transpositions(3)
    # cayley() numbers the group elements in sorted order
    elements = _closure(tuple(range(3)), gens)
    g = cayley(gens)
    assert len(elements) == g.n == 6
    index = {e: i for i, e in enumerate(elements)}
    for e in elements:
        for s in gens:
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
    # the node budget is the search's only limit, past 64 vertices as below:
    # C70 relabelled is searched, and C70 itself is seeded by its translation
    assert is_vertex_transitive(relabelled(cycle_graph(70), 0))
    assert is_vertex_transitive(cycle_graph(70))
    # one double-edge switch of circulant(70, {1, 35, 69}) leaves it connected and
    # 3-regular, with an orbit of 0 of four vertices (networkx's VF2 agrees)
    switched = Graph(70, set(circulant(70, {1, 35, 69}).edges()) - {(0, 1), (2, 3)}
                     | {(0, 2), (1, 3)})
    assert is_connected(switched) and is_regular(switched) == 3
    _check_orbit(switched, {0, 3, 35, 38})
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
    # a labelled circulant's orbit is seeded by the translation x -> x + 1,
    # so it takes no search (one each before the translation test). The
    # search still finds that translation first: h's candidates are tried
    # from just above u, so the map 0 -> 1 is translation-like and its cycle
    # through 0 is the whole vertex set; in ascending order it would be an
    # involution through 0 (1,116 searches on these circulants, n - 1 on K_n)
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
        assert calls == [], graph_to_graph6(g)
        assert automorphism_mapping(g, 0, 1) == (*range(1, g.n), 0), graph_to_graph6(g)
    # relabelled, the translation is seldom an automorphism and the orbit is
    # searched: 1,236 searches over the 701 circulants, none on 15 of them
    calls.clear()
    for seed, g in enumerate(_connected_circulants(16)):
        assert sorted(vertex_orbit_of_zero(relabelled(g, seed))) == list(range(g.n))
    assert len(calls) == 1236


def _translation_graphs():
    """The graphs whose translation x -> x + 1 is an automorphism, of three families.

    The 701 connected circulants to 16 vertices, K_3..K_11, and the 181 of
    ``vt:count=200,max_n=32`` seed 7.
    """
    vt = [g for g in vertex_transitive_corpus(count=200, seed=7, max_n=32)
          if is_automorphism(g, (*range(1, g.n), 0))]
    assert len(vt) == 181
    return [*_connected_circulants(16), *map(complete_graph, range(3, 12)), *vt]


def test_a_translation_seeds_the_orbit_with_the_maps_the_search_finds(monkeypatch):
    # every map is an automorphism sending 0 where it claims, and the maps are
    # exactly those of the search alone, so κ's orbit rule runs the same flows
    from cyclemeet import transitive

    graphs = _translation_graphs()
    seeded = [vertex_orbit_of_zero(g) for g in graphs]
    monkeypatch.setattr(transitive, "_translation", lambda g: None)
    for g, maps in zip(graphs, seeded):
        assert sorted(maps) == list(range(g.n)), graph_to_graph6(g)
        for u, auto in maps.items():
            assert auto[0] == u and is_automorphism(g, auto), graph_to_graph6(g)
        assert vertex_orbit_of_zero(g) == maps, graph_to_graph6(g)


def test_the_translation_test_reads_the_wrap_around():
    # C_n's edge {n - 1, 0} is the translation's image of {n - 2, n - 1}: the
    # row of n - 2 holds bit n - 1, which must wrap round to bit 0. A chord or
    # a missing edge breaks the translation
    for n in (5, 8, 13):
        assert transitive_translation(cycle_graph(n)) == (*range(1, n), 0)
        assert transitive_translation(Graph(n, [*cycle_graph(n).edges(), (0, 2)])) is None
        assert transitive_translation(path_graph(n)) is None


def _assert_hamiltonian(g: Graph, cycle) -> None:
    """The cycle visits every vertex once along edges of the networkx graph."""
    assert cycle is not None, graph_to_graph6(g)
    h = as_networkx(g)
    vs = cycle.vertices
    assert sorted(vs) == list(range(g.n)), graph_to_graph6(g)
    assert all(h.has_edge(a, b) for a, b in zip(vs, vs[1:] + vs[:1])), graph_to_graph6(g)


def test_an_n_cycle_map_builds_a_hamiltonian_cycle():
    # on every graph with an n-cycle among its orbit maps, including the 42
    # circulants of random_circulants(200, 1, 128) on which the rotation walk
    # closes no Hamiltonian cycle; relabelled circulants take σ from the search
    from cyclemeet.cycles import _rotation_cycle

    graphs = _translation_graphs()
    randoms = random_circulants(200, seed=1, max_n=128)
    assert sum(_rotation_cycle(g).length < g.n for g in randoms) == 42
    built = 0
    for g in [*graphs, *randoms]:
        cycle = circulant_hamiltonian_cycle(g, vertex_orbit_of_zero(g))
        _assert_hamiltonian(g, cycle)
    for seed, g in enumerate(_connected_circulants(16)):
        h = relabelled(g, seed)
        cycle = circulant_hamiltonian_cycle(h, vertex_orbit_of_zero(h))
        if cycle is not None:
            _assert_hamiltonian(h, cycle)
            built += 1
    assert built == 568


def test_no_hamiltonian_cycle_is_built_without_an_n_cycle_map_or_connection():
    # a disconnected circulant has the translation, an n-cycle, among its maps
    for n, steps in ((8, {2, 6}), (12, {4, 6, 8}), (9, {3, 6})):
        g = circulant(n, steps)
        maps = vertex_orbit_of_zero(g)
        assert maps[1] == (*range(1, n), 0) and not is_connected(g)
        assert circulant_hamiltonian_cycle(g, maps) is None
    # no automorphism of Petersen's graph is a 10-cycle
    g = petersen_graph()
    assert circulant_hamiltonian_cycle(g, vertex_orbit_of_zero(g)) is None
    # two vertices make no cycle
    g = circulant(2, {1})
    assert circulant_hamiltonian_cycle(g, vertex_orbit_of_zero(g)) is None


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
        h = as_networkx(g)
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
        assert auto[0] == u, graph_to_graph6(g)
        assert is_automorphism(g, auto), graph_to_graph6(g)
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
def relabelled_unions(draw):
    """g + h on 2n vertices: h is g relabelled, and half of the time has one edge moved too.

    g has n <= 8 vertices and is a random graph, a circulant (half of the
    time less one edge), or a cycle with a random perfect matching added,
    and h is laid on vertices n..2n-1. The last two are near-regular, so
    refinement alone rarely tells g's side from h's or a wrong branch from
    a right one; a matching usually leaves g with few automorphisms, so the
    search must backtrack to map 0 into h. The orbit of 0 meets h iff h is
    g relabelled.
    """
    n = draw(st.integers(1, 8))
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
    return Graph(2 * n, edges + [(n + u, n + v) for u, v in moved])


@settings(max_examples=200, deadline=None)
@given(relabelled_unions())
def test_orbit_of_a_graph_and_its_relabelling_matches_graph_matcher(g):
    _check_orbit(g, _orbit_by_graph_matcher(g))


def test_automorphism_mapping_tries_every_candidate():
    # two triangles and a square: refinement cannot tell a triangle vertex
    # from a square vertex, so the branch on 3 tries the square vertex 6
    # first, fails, and must go on to the triangle vertices
    g = Graph(10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                   (6, 7), (7, 8), (8, 9), (6, 9)])
    auto = automorphism_mapping(g, 0, 3)
    assert auto is not None and auto[0] == 3
    assert is_automorphism(g, auto)


def test_automorphism_mapping_rejects_a_discrete_partition_whose_map_fails():
    # no automorphism sends 0 to 2, yet refinement individualizes the two
    # sides to discrete partitions that agree cell by cell; only the row
    # image check rejects the map
    g = graph_from_graph6("G?`ebS")
    assert 2 not in _orbit_by_graph_matcher(g)
    assert automorphism_mapping(g, 0, 2) is None


def test_automorphism_mapping_returns_none_once_every_branch_fails():
    # 4-regular on 10 vertices with |Aut| = 4, all fixing 0: refinement
    # cannot rule out 0 -> 5 at the root, so the search branches, and every
    # candidate of the branch fails; 5 nodes in all, so budget 4 runs out
    g = graph_from_graph6("IUDH[pdw_")
    assert is_regular(g) == 4
    assert automorphism_mapping(g, 0, 5, budget=5) is None
    with pytest.raises(BudgetExceededError):
        automorphism_mapping(g, 0, 5, budget=4)
    assert _orbit_by_graph_matcher(g) == {0}
    _check_orbit(g, {0})
    from networkx.algorithms.isomorphism import GraphMatcher

    h = as_networkx(g)
    assert sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter()) == 4


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
    assert automorphism_mapping(g, 0, 0, budget=1) == (0, 1, 2, 3, 4)
    assert automorphism_mapping(g, 0, 1, budget=1) == (1, 0, 2, 3, 4)


def test_automorphism_validity_and_sampling():
    g = petersen_graph()
    for v in range(1, 6):
        a = automorphism_mapping(g, 0, v)
        assert a is not None and a[0] == v
        assert is_automorphism(g, a)
        assert is_automorphism(g, tuple(sorted(range(g.n), key=a.__getitem__)))
    assert not is_automorphism(g, [1, 0] + list(range(2, 10)))


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
