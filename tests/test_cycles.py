import hashlib
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclemeet import cycles
from cyclemeet.corpus import load_connected_corpus, pairwise_corpus, vertex_transitive_corpus
from cyclemeet.cycles import (
    BudgetExceededError,
    CycleEmbedding,
    DEFAULT_BUDGET,
    canonical_cycle,
    enumerate_longest_cycles,
    is_t_transversal,
    longest_cycle_length,
    min_pairwise_intersection,
)
from cyclemeet.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_graph6,
    graph_to_graph6,
    is_connected,
    is_forest,
    petersen_graph,
)
from cyclemeet.harness import ENUMERATION_LIMIT
from cyclemeet.transitive import circulant

from hosts import path_graph
from make_search_pins import PINS, search_facts
from oracles import all_cycles_of_length_by_permutations, longest_cycle_by_permutations


def search_witness(g: Graph) -> CycleEmbedding:
    """The length search's own longest cycle, the first it closes in DFS order."""
    search = cycles._Search(g, DEFAULT_BUDGET, limit=1).run()
    return CycleEmbedding(canonical_cycle(search.found[0]))


def test_longest_cycle_basics():
    assert longest_cycle_length(cycle_graph(7)) == 7
    assert longest_cycle_length(complete_graph(4)) == 4
    assert longest_cycle_length(petersen_graph()) == 9


def test_forest_is_an_error():
    with pytest.raises(ValueError, match="forest has no cycle"):
        longest_cycle_length(path_graph(5))


def test_budget_error_carries_lower_bound():
    # the rotation walk closes a 9-cycle, and 3 nodes cannot rule out a 10-cycle
    g = petersen_graph()
    with pytest.raises(BudgetExceededError) as info:
        longest_cycle_length(g, budget=3)
    assert info.value.best_length == 9
    # a budget that only just covers the first full descent has seen a cycle
    with pytest.raises(BudgetExceededError) as info:
        enumerate_longest_cycles(complete_graph(8), budget=60)
    assert info.value.best_length >= 3


def test_kept_cycles_count_against_the_budget():
    # a replayed subtree keeps cycles without node expansions, so the budget
    # bounds the kept set itself: K9's 20,160 Hamiltonian cycles take 2,008 nodes
    g = complete_graph(9)
    assert len(enumerate_longest_cycles(g, budget=20_160)) == 20_160
    with pytest.raises(BudgetExceededError, match="20159 kept cycles") as info:
        enumerate_longest_cycles(g, budget=20_159)
    assert info.value.best_length == 9
    # the last replay would reach the limit, so it is searched for real, and
    # the close that would keep a 20,160th cycle stops the search
    with pytest.raises(BudgetExceededError, match="20159 kept cycles"):
        enumerate_longest_cycles(g, limit=20_160, budget=20_159)
    # K10's 181,440 stop at the budget, as when each kept cycle cost a node
    with pytest.raises(BudgetExceededError, match="100000 kept cycles"):
        enumerate_longest_cycles(complete_graph(10), budget=100_000)


def test_a_budget_of_exactly_the_nodes_a_search_expands_is_enough():
    # the budget is the most node expansions allowed: the one past it raises
    for g in (petersen_graph(), complete_graph(6), circulant(10, {1, 3, 7, 9})):
        nodes = cycles._Search(g, DEFAULT_BUDGET).run().nodes
        assert len(enumerate_longest_cycles(g, budget=nodes)) == len(enumerate_longest_cycles(g))
        with pytest.raises(BudgetExceededError, match=f"budget of {nodes - 1} node expansions"):
            enumerate_longest_cycles(g, budget=nodes - 1)


def test_budget_or_limit_below_one_is_rejected():
    g = complete_graph(4)
    for budget in (0, -4):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            longest_cycle_length(g, budget=budget)
    for limit in (0, -3):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_longest_cycles(g, limit=limit)


def test_enumeration_counts():
    assert len(enumerate_longest_cycles(complete_graph(4))) == 3
    assert len(enumerate_longest_cycles(cycle_graph(9))) == 1
    cs = enumerate_longest_cycles(petersen_graph())
    assert cs.length == 9 and len(cs) == 20 and not cs.truncated
    # exact count confirmed by the raw permutation oracle
    oracle = all_cycles_of_length_by_permutations(petersen_graph(), 9)
    assert {c.vertices for c in cs} == oracle
    # vertex-transitivity forces uniform membership counts
    membership = {v: 0 for v in range(10)}
    for c in cs:
        for v in c.vertices:
            membership[v] += 1
    assert set(membership.values()) == {18}


def test_enumeration_matches_permutation_oracle():
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        n = rng.randrange(4, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        try:
            length = longest_cycle_length(g)
        except ValueError:
            continue
        assert length == longest_cycle_by_permutations(g)
        ours = {c.vertices for c in enumerate_longest_cycles(g)}
        assert ours == all_cycles_of_length_by_permutations(g, length)
        checked += 1


def test_enumeration_matches_the_oracle_on_every_graph_up_to_six_vertices():
    graphs = load_connected_corpus(max_n=6)
    assert len(graphs) == 143
    for g in graphs:
        if is_forest(g):
            continue
        cs = enumerate_longest_cycles(g)
        label = graph_to_graph6(g)
        assert not cs.truncated and cs.length == longest_cycle_by_permutations(g), label
        oracle = all_cycles_of_length_by_permutations(g, cs.length)
        assert {c.vertices for c in cs} == oracle, label


# Which cycles a truncated set keeps is the search's own choice, the first it
# closes in DFS order, and no oracle can check it; these digests pin it, with
# c(G), the sorted cycles and truncated, for every graph of each corpus.
ENUMERATION_CORPORA = {
    "exhaustive7": lambda: load_connected_corpus(max_n=7),
    "default42": lambda: pairwise_corpus(max_n=12, seed=42, random_count=10)
    + vertex_transitive_corpus(count=40, seed=42, max_n=16),
    "pairwise12": lambda: pairwise_corpus(max_n=12, seed=11, random_count=30),
}


ENUMERATION_DIGESTS = [
    ("exhaustive7", 1, "831afb0046197c540094ef018a0ce85a09c74d55a2157d92d3318b1f0ad8a69d"),
    ("exhaustive7", 7, "dddc333145e5eb995c212afccfe99cda3f2dd65ac122acfcf35c2e8b3e7aa518"),
    ("exhaustive7", 5000, "75483afae282e6c05e2b85b959ffd29266bf7ad9764d7a378daa169c2b7df0e8"),
    ("default42", 5000, "e8d24f67446e64d8d43c2eea4f8805f2a26d737b544a329ae32333d5b8d12df0"),
    ("pairwise12", 7, "bb833424343dc843f8ac7c19e0ba523b68ffa802b4d45035e5da2c65b5a676f9"),
    ("pairwise12", 5000, "b5edf2db69368b55a66c9f3db7e9f652adc890d5193d5cb9896dae2b751d79f7"),
]


@pytest.mark.parametrize("corpus, limit, digest", ENUMERATION_DIGESTS,
                         ids=[f"{corpus}-{limit}" for corpus, limit, _ in ENUMERATION_DIGESTS])
def test_enumerated_sets_are_pinned(corpus, limit, digest):
    h = hashlib.sha256()
    for g in ENUMERATION_CORPORA[corpus]():
        if is_forest(g):
            continue
        cs = enumerate_longest_cycles(g, limit=limit)
        record = [graph_to_graph6(g), cs.length, [list(c.vertices) for c in cs], cs.truncated]
        h.update(json.dumps(record).encode() + b"\n")
    assert h.hexdigest() == digest


def test_oracle_equivalence_touches_ten_vertices():
    rng = random.Random(17)
    graphs = [petersen_graph()]
    while len(graphs) < 6:
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.3]
        g = Graph(10, edges)
        if is_connected(g):
            graphs.append(g)
    for g in graphs:
        try:
            ours = longest_cycle_length(g)
        except ValueError:
            continue
        assert ours == longest_cycle_by_permutations(g)


def test_search_outputs_match_pins():
    # the pinned graphs keep every output under each exact bound so far,
    # though closing one way can move the witness of other graphs; a weaker
    # bound shows up as more nodes than pinned
    for record in json.loads(PINS.read_text()):
        g = graph_from_graph6(record["graph6"])
        for mode, pinned in record["searches"].items():
            got = search_facts(g, mode)
            label = (record["name"], mode)
            assert got["nodes"] <= pinned.pop("nodes"), label
            del got["nodes"]
            assert got == pinned, label


def _pinned_searches():
    for record in json.loads(PINS.read_text()):
        g = graph_from_graph6(record["graph6"])
        for mode in record["searches"]:
            yield (record["name"], mode), g, mode


def test_dead_state_memo_moves_only_node_counts(monkeypatch):
    # the memo skips only subtrees that close nothing, so with it switched
    # off (cap 0) or nearly so (cap 3) every output stays the same
    with_memo = {label: search_facts(g, mode) for label, g, mode in _pinned_searches()}
    for cap in (0, 3):
        monkeypatch.setattr(cycles, "DEAD_STATE_CAP", cap)
        for label, g, mode in _pinned_searches():
            got = search_facts(g, mode)
            want = dict(with_memo[label])
            if cap == 0:
                assert want["nodes"] <= got["nodes"], label
            del got["nodes"], want["nodes"]
            assert got == want, label


@pytest.mark.parametrize("g6", ["Hahg^hL", "H?]~OTU"])
def test_dead_state_memo_is_kept_per_anchor(g6):
    # the memo is kept per anchor and cleared at each anchor's root; these
    # non-Hamiltonian graphs' later anchors meet a (kept set, head) state that
    # an earlier anchor left dead and that closes into the later one
    g = graph_from_graph6(g6)
    cs = enumerate_longest_cycles(g)
    assert {c.vertices for c in cs} == all_cycles_of_length_by_permutations(g, cs.length)


def test_dead_state_memo_on_the_dominant_babai_circulant(monkeypatch):
    # C24(±1, ±3, ±10, 12) is circulants[6] of the babai-circulants benchmark
    # corpus and most of its enumeration nodes: dead ends met and subtrees
    # closed again while its Hamiltonian cycles are collected (396,123 nodes
    # without the memo, 75,321 before closed subtrees were replayed)
    g = circulant(24, {1, 3, 10, 12, 14, 21, 23})
    got = search_facts(g, "5000")
    assert got["nodes"] <= 32_271
    monkeypatch.setattr(cycles, "DEAD_STATE_CAP", 0)
    plain = search_facts(g, "5000")
    del got["nodes"], plain["nodes"]
    assert got == plain
    assert got["c"] == 24 and len(got["cycles"]) == 5000 and got["truncated"]


@st.composite
def memo_test_graphs(draw, max_n: int = 9):
    """Graphs on 4..max_n vertices with a cycle: random edges, or a ring plus chords."""
    n = draw(st.integers(4, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if draw(st.booleans()):
        edges = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)))
    else:
        order = draw(st.permutations(range(n)))
        edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)))
    g = Graph(n, sorted(edges))
    assume(not is_forest(g))
    return g


# A slack-zero child's state is remembered only if its search left floor and
# best where they stood. A child entered after an earlier sibling's close
# raised floor is cut for length, not searched, so its state must not be
# remembered as closing nothing. Doing so moved the witness with limit 1, the
# length search (HRaYpQw), dropped the second kept cycle and cleared truncated with limit 2
# (H`fiSSa), and dropped one of three longest cycles with limit 7 (HPrZ@|@).
# In a truncated search a child can close a cycle of length floor that
# becomes the new best at the same floor and clears the kept set; remembering
# its slice then breaks the kept set with limit 2 (FCpv_, Jw|T|OxSAa?). A
# state is kept across second vertices, keyed by the anchor neighbours it may
# close on: E}zw skips a dead state and replays closed ones recorded under an
# earlier path[1], and Dzk replays one with limit 7; keyed without those
# neighbours, E}zw loses cycles. Cap 0
# turns the memo off, both the skipped subtrees that closed nothing and the
# replayed ones that closed cycles, which the collecting modes check,
# complete and under limits that truncate.
@settings(max_examples=300, deadline=None)
@given(memo_test_graphs())
@example(graph_from_graph6("HRaYpQw"))
@example(graph_from_graph6("H`fiSSa"))
@example(graph_from_graph6("HPrZ@|@"))
@example(graph_from_graph6("FCpv_"))
@example(graph_from_graph6("Jw|T|OxSAa?"))
@example(graph_from_graph6("E}zw"))
@example(graph_from_graph6("Dzk"))
def test_dead_state_memo_matches_the_search_without_it(g):
    for mode in ("1", "2", "7", "none"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "DEAD_STATE_CAP", 0)
            plain = search_facts(g, mode)
        nodes = plain.pop("nodes")
        got = search_facts(g, mode)
        assert got.pop("nodes") <= nodes, mode
        assert got == plain, mode


@settings(max_examples=200, deadline=None)
@given(memo_test_graphs(max_n=7))
def test_enumeration_matches_the_permutation_oracle_on_memo_test_graphs(g):
    cs = enumerate_longest_cycles(g)
    assert not cs.truncated and cs.length == longest_cycle_by_permutations(g)
    assert {c.vertices for c in cs} == all_cycles_of_length_by_permutations(g, cs.length)


def test_length_search_expands_no_more_nodes_than_the_enumeration():
    # limit 1 (floor = best + 1) against the collecting floor = best, from the
    # first anchor and from the rotation walk's floor as longest_cycle_length runs it: c(G)
    # agrees and a budget that sufficed to enumerate suffices for c(G)
    for g in load_connected_corpus(max_n=7) + ENUMERATION_CORPORA["default42"]():
        if is_forest(g):
            continue
        full = cycles._Search(g, DEFAULT_BUDGET, limit=ENUMERATION_LIMIT).run()
        label = graph_to_graph6(g)
        plain = cycles._Search(g, DEFAULT_BUDGET, limit=1).run()
        for length in (plain, cycles._length_search(g, DEFAULT_BUDGET)):
            assert length.best == full.best, label
            assert length.nodes <= full.nodes, label


@st.composite
def random_circulants(draw):
    """Circulants on 4..24 vertices, disconnected when every step shares a factor with n."""
    n = draw(st.integers(4, 24))
    steps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4, unique=True))
    g = circulant(n, steps + [n - s for s in steps])
    assume(not is_forest(g))
    return g


# The search runs from the walk's floor when the walk is not Hamiltonian: it
# proves c(G) = h on the Petersen graph and on four disjoint triangles, and
# finds a 5-cycle past the walk's triangle on F?bFo.
@settings(max_examples=300, deadline=None)
@given(st.one_of(memo_test_graphs(), random_circulants()))
@example(petersen_graph())
@example(circulant(12, {3, 9}))
@example(graph_from_graph6("F?bFo"))
def test_length_from_the_rotation_walk_matches_the_plain_search(g):
    assert longest_cycle_length(g) == cycles._Search(g, DEFAULT_BUDGET, limit=1).run().best


def test_petersen_length_is_proved_from_the_walk_floor():
    g = petersen_graph()
    cycle = cycles._rotation_cycle(g)
    assert cycle.is_valid(g) and cycle.length == 9
    # no 10-cycle closes from floor 10, in fewer nodes than the 50 from floor 1
    search = cycles._length_search(g, DEFAULT_BUDGET)
    assert (search.best, search.floor, search.found) == (9, 10, [])
    assert search.nodes <= 46
    assert cycles._Search(g, DEFAULT_BUDGET, limit=1).run().nodes == 50


def test_length_search_keeps_one_cycle_past_the_walk():
    # ECuw's walk closes a triangle, and the search from floor 4 meets its
    # three 4-cycles; kept to one cycle, it keeps the first and ends at floor c + 1
    g = graph_from_graph6("ECuw")
    assert cycles._rotation_cycle(g).length == 3
    assert len(enumerate_longest_cycles(g)) == 3
    search = cycles._length_search(g, DEFAULT_BUDGET)
    assert (search.best, search.floor, search.truncated) == (4, 5, True)
    assert search.found == [enumerate_longest_cycles(g, limit=1).sequences[0]]


def test_rotation_walk_closes_a_valid_cycle_on_exhaustive7():
    closed = reached = hamiltonian = 0
    for g in load_connected_corpus(max_n=7):
        if is_forest(g):
            continue
        label = graph_to_graph6(g)
        cycle = cycles._rotation_cycle(g)
        # a walk whose end meets only its predecessor stops and may close nothing
        h = 0 if cycle is None else cycle.length
        assert cycle is None or cycle.is_valid(g), label
        c = cycles._Search(g, DEFAULT_BUDGET, limit=1).run().best
        assert h <= c, label
        closed += h > 0
        reached += h == c
        hamiltonian += h == g.n
    # of 971 graphs with a cycle, the walk certifies 441 Hamiltonian
    assert (closed, reached, hamiltonian) == (864, 767, 441)


def test_enumeration_limit_flags_truncation():
    cs = enumerate_longest_cycles(complete_graph(6), limit=5)
    assert cs.truncated and len(cs) == 5


@st.composite
def small_graphs_with_cycles(draw):
    """Graphs on at most 10 vertices with at most 2n edges and a cycle."""
    n = draw(st.integers(3, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    g = Graph(n, edges)
    assume(not is_forest(g))
    return g


def _networkx_longest_cycles(g: Graph) -> set[tuple[int, ...]]:
    nx = pytest.importorskip("networkx")
    h = nx.Graph(list(g.edges()))
    cycles = [canonical_cycle(c) for c in nx.simple_cycles(h, length_bound=g.n)]
    longest = max(len(c) for c in cycles)
    return {c for c in cycles if len(c) == longest}


@settings(max_examples=150, deadline=None)
@given(small_graphs_with_cycles())
def test_search_matches_networkx_simple_cycles(g):
    expected = _networkx_longest_cycles(g)
    length = len(next(iter(expected)))
    assert longest_cycle_length(g) == length
    assert search_witness(g).vertices in expected
    cs = enumerate_longest_cycles(g)
    assert cs.length == length and not cs.truncated
    assert {c.vertices for c in cs} == expected


@st.composite
def hamiltonian_rich_graphs(draw):
    """A random Hamiltonian cycle on 4..9 vertices plus up to n random chords."""
    n = draw(st.integers(4, 9))
    order = draw(st.permutations(range(n)))
    ring = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in ring]
    edges = ring | set(draw(st.lists(st.sampled_from(chords), max_size=n, unique=True)))
    return Graph(n, sorted(edges))


@settings(max_examples=200, deadline=None)
@given(hamiltonian_rich_graphs())
def test_enumeration_of_hamiltonian_graphs_matches_networkx(g):
    # every longest cycle is Hamiltonian, so the collecting search runs at
    # slack zero from the root, where the forced-edge rule cuts
    expected = _networkx_longest_cycles(g)
    assert len(next(iter(expected))) == g.n
    cs = enumerate_longest_cycles(g)
    assert cs.length == g.n and not cs.truncated
    assert {c.vertices for c in cs} == expected
    assert search_witness(g).vertices in expected
    for limit in (1, 7):
        kept = enumerate_longest_cycles(g, limit=limit)
        assert kept.length == g.n
        assert {c.vertices for c in kept} <= expected
        assert len(kept) == min(limit, len(expected))
        assert kept.truncated == (len(expected) >= limit)


def _check_limited_enumeration(g: Graph) -> None:
    full = {c.vertices for c in enumerate_longest_cycles(g)}
    length = longest_cycle_length(g)
    for limit in (1, 2, 3):
        cs = enumerate_longest_cycles(g, limit=limit)
        kept = {c.vertices for c in cs}
        assert cs.length == length
        assert kept <= full
        assert len(kept) == min(limit, len(full))
        assert cs.truncated == (len(full) >= limit)


@settings(max_examples=150, deadline=None)
@given(small_graphs_with_cycles())
def test_limited_enumeration_keeps_longest_cycles(g):
    _check_limited_enumeration(g)


def test_limit_reached_below_c_is_reset_by_longer_cycle():
    # the search closes the triangle 0-1-2 first, then meets the 4-cycle
    # 0-3-5-4 as 0-4-5-3, the way round it does not keep, before its mirror
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 5), (5, 4), (4, 0), (3, 6)])
    _check_limited_enumeration(g)
    cs = enumerate_longest_cycles(g, limit=1)
    assert cs.length == 4 and cs.truncated
    assert [c.vertices for c in cs] == [(0, 3, 5, 4)]


def test_witness_is_valid_longest():
    g = petersen_graph()
    w = search_witness(g)
    assert w.is_valid(g) and w.length == 9


def test_canonical_form_examples():
    assert canonical_cycle((2, 0, 1)) == (0, 1, 2)
    assert canonical_cycle((3, 2, 1, 0)) == (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=3, max_size=12, unique=True), st.data())
def test_canonicalization_invariance(seq, data):
    rot = data.draw(st.integers(0, len(seq) - 1))
    rotated = seq[rot:] + seq[:rot]
    assert canonical_cycle(rotated) == canonical_cycle(seq)
    assert canonical_cycle(list(reversed(seq))) == canonical_cycle(seq)


def test_cycle_embedding_validation():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        CycleEmbedding.from_sequence(g, [0, 1, 2])  # chord missing
    with pytest.raises(ValueError):
        CycleEmbedding.from_sequence(g, [0, 1])
    c = CycleEmbedding.from_sequence(g, [1, 2, 3, 4, 0])
    assert c.vertices == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("seq, bad", [
    ([10, 0, 1], 10), ([0, 1, 2, 3, -1], -1), ([0, 1, 2, 3, 10], 10), ([4, -7, 0], -7),
])
def test_cycle_vertex_out_of_range_is_named(seq, bad):
    # checked before any edge is read: Graph.has_edge would index past its rows
    # or shift by a negative count
    with pytest.raises(ValueError, match=rf"^vertex {bad} not in graph of order 10$"):
        CycleEmbedding.from_sequence(petersen_graph(), seq)


def test_min_pairwise_intersection():
    k4 = enumerate_longest_cycles(complete_graph(4))
    size, (x, y) = min_pairwise_intersection(k4)
    assert size == 4 and x != y

    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])  # two disjoint triangles
    cs = enumerate_longest_cycles(g)
    assert min_pairwise_intersection(cs)[0] == 0

    pet = enumerate_longest_cycles(petersen_graph())
    m_star, _ = min_pairwise_intersection(pet)
    assert m_star == 8  # regression constant; at least 3 by 3-connectivity

    with pytest.raises(ValueError, match="need two cycles"):
        min_pairwise_intersection(enumerate_longest_cycles(cycle_graph(5)))


def test_is_t_transversal():
    c5, k4 = cycle_graph(5), complete_graph(4)
    assert is_t_transversal(c5, enumerate_longest_cycles(c5), {0}, 1)
    assert not is_t_transversal(k4, enumerate_longest_cycles(k4), {0, 1}, 3)
    pet = petersen_graph()
    cs = enumerate_longest_cycles(pet)
    m_star, _ = min_pairwise_intersection(cs)
    assert is_t_transversal(pet, cs, cs.cycles[0].vertex_set(), m_star)
    with pytest.raises(ValueError):
        is_t_transversal(c5, enumerate_longest_cycles(c5), {0}, 0)


def test_is_t_transversal_rejects_truncated_set():
    k5 = complete_graph(5)
    cs = enumerate_longest_cycles(k5, limit=2)
    assert cs.truncated
    with pytest.raises(ValueError, match="truncated"):
        is_t_transversal(k5, cs, range(5), 1)
    with pytest.raises(ValueError):
        is_t_transversal(k5, enumerate_longest_cycles(k5), {5}, 1)


def test_prop21_nonempty_intersections_small_corpus():
    # every pair of longest cycles in a 2-connected graph shares a vertex
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        n = rng.randrange(4, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        from cyclemeet.graphs import vertex_connectivity

        if vertex_connectivity(g) < 2:
            continue
        cs = enumerate_longest_cycles(g)
        for i in range(len(cs.cycles)):
            for j in range(i + 1, len(cs.cycles)):
                assert cs.cycles[i].vertex_set() & cs.cycles[j].vertex_set()
        checked += 1


def test_cycle_set_json_shape():
    cs = enumerate_longest_cycles(complete_graph(4))
    payload = json.loads(json.dumps(cs.to_json_dict()))
    assert payload["length"] == 4
    assert payload["count"] == 3
    assert payload["truncated"] is False
    assert sorted(payload["cycles"]) == payload["cycles"]


def test_deterministic_enumeration_order():
    a = enumerate_longest_cycles(petersen_graph())
    b = enumerate_longest_cycles(petersen_graph())
    assert [c.vertices for c in a] == [c.vertices for c in b]
    assert [c.vertices for c in a.cycles] == sorted(c.vertices for c in a.cycles)
