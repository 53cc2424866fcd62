import collections
import itertools

import pytest

from cyclemeet.corpus import (
    is_biconnected,
    load_connected_corpus,
    random_circulants,
    vertex_transitive_corpus,
)
from cyclemeet.graphs import cycle_graph, graph_to_graph6, is_connected
from cyclemeet.transitive import is_vertex_transitive

from hosts import menger_instances, nine_vertex_sample, path_graph
from oracles import as_networkx

# connected graphs on n vertices up to isomorphism, n = 1..8 (OEIS A001349)
CONNECTED_GRAPH_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]


@pytest.fixture(scope="module")
def stored_by_order():
    """The shipped corpus, read once, as n -> its graphs on n vertices."""
    by_n = collections.defaultdict(list)
    for g in load_connected_corpus(8):
        by_n[g.n].append(g)
    return by_n


def test_stored_corpus_counts_and_content(stored_by_order):
    # a smaller max_n keeps the file's prefix of graphs on at most max_n vertices
    for max_n in range(1, 9):
        graphs = load_connected_corpus(max_n)
        assert len(graphs) == sum(CONNECTED_GRAPH_COUNTS[:max_n])
        assert graphs == [g for n in range(1, max_n + 1) for g in stored_by_order[n]]
    with pytest.raises(ValueError, match="n <= 8"):
        load_connected_corpus(9)


# networkx warns that its hashes of unlabelled graphs changed in v3.5; the
# hash only buckets the graphs here, and VF2 decides inside each bucket
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
@pytest.mark.parametrize("n", range(1, 9))
def test_stored_corpus_is_every_connected_graph_once(n, stored_by_order):
    nx = pytest.importorskip("networkx")
    graphs = stored_by_order[n]
    assert len(graphs) == CONNECTED_GRAPH_COUNTS[n - 1]
    buckets = collections.defaultdict(list)
    for g in graphs:
        h = as_networkx(g)
        assert nx.is_connected(h), graph_to_graph6(g)
        buckets[g.edge_count, nx.weisfeiler_lehman_graph_hash(h)].append((g, h))
    for bucket in buckets.values():
        for (a, a_nx), (b, b_nx) in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(a_nx, b_nx), (graph_to_graph6(a), graph_to_graph6(b))


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
