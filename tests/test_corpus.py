import collections

from cyclemeet.corpus import (
    ALL_GRAPH_COUNTS,
    CONNECTED_GRAPH_COUNTS,
    all_graphs_exactly,
    generate_connected_corpus,
    is_biconnected,
    load_connected_corpus,
    random_circulants,
    vertex_transitive_corpus,
)
from cyclemeet.graphs import cycle_graph, graph_to_graph6, is_connected
from cyclemeet.transitive import is_vertex_transitive

from hosts import menger_instances, nine_vertex_sample, path_graph


def test_census_matches_known_counts_through_six():
    level = None
    for n in range(1, 7):
        level = all_graphs_exactly(n, parents=level)
        assert len(level) == ALL_GRAPH_COUNTS[n - 1]


def test_stored_corpus_counts_and_content():
    graphs = load_connected_corpus(8)
    by_n = collections.Counter(g.n for g in graphs)
    assert [by_n[n] for n in range(1, 9)] == CONNECTED_GRAPH_COUNTS
    assert all(is_connected(g) for g in graphs[:500])
    # no duplicate graph6 lines
    lines = [graph_to_graph6(g) for g in graphs]
    assert len(lines) == len(set(lines))


def test_stored_corpus_agrees_with_regeneration_small():
    regenerated = {graph_to_graph6(g) for g in generate_connected_corpus(6)}
    stored = {graph_to_graph6(g) for g in load_connected_corpus(6)}
    assert regenerated == stored


def test_biconnectivity_predicate():
    from cyclemeet.corpus import two_triangles_shared_vertex

    assert is_biconnected(cycle_graph(4))
    assert not is_biconnected(path_graph(4))
    # the shared-vertex host has a cut vertex
    assert not is_biconnected(two_triangles_shared_vertex())


def test_seeded_families_are_deterministic():
    assert [graph_to_graph6(g) for g in random_circulants(10, seed=9)] == [
        graph_to_graph6(g) for g in random_circulants(10, seed=9)
    ]
    a = menger_instances(20, seed=4)
    b = menger_instances(20, seed=4)
    assert [(graph_to_graph6(g), sorted(s), sorted(t)) for g, s, t in a] == [
        (graph_to_graph6(g), sorted(s), sorted(t)) for g, s, t in b
    ]


def test_vertex_transitive_corpus_size_and_range():
    corpus = vertex_transitive_corpus(count=200, seed=7, max_n=32)
    assert len(corpus) >= 200
    assert all(g.n <= 32 for g in corpus)
    assert all(is_connected(g) for g in corpus)


def test_vertex_transitive_corpus_respects_small_max_n():
    corpus = vertex_transitive_corpus(count=40, seed=7, max_n=8)
    assert len(corpus) == 40
    assert max(g.n for g in corpus) == 8
    assert all(is_connected(g) and is_vertex_transitive(g) for g in corpus)
    # the fixed families alone cover a small count
    assert all(g.n <= 3 for g in vertex_transitive_corpus(count=2, seed=7, max_n=3))


def test_nine_vertex_sample():
    sample = nine_vertex_sample(count=30, seed=5)
    assert all(g.n == 9 and is_connected(g) for g in sample)
