import collections
import hashlib
import itertools

import pytest

from cyclemeet import corpus
from cyclemeet.corpus import (
    _draw,
    is_biconnected,
    load_connected_corpus,
    pairwise_corpus,
    random_circulants,
    random_connected_graphs,
    vertex_transitive_corpus,
)
from cyclemeet.graphs import cycle_graph, graph_to_graph6, is_connected
from cyclemeet.harness import CorpusSpec, corpus_instances
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


def _sha1_prefix(lines) -> str:
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()[:16]


# each seeded family's graphs, pinned as the sha1 of their graph6 lines: a
# change to a builder's draws or to the order of its random calls shows here
@pytest.mark.parametrize("build, digest", [
    (lambda: random_connected_graphs(20, 1, range(5, 13), (0.2, 0.3, 0.5)), "44340387e53dddcd"),
    (lambda: random_connected_graphs(20, 3, range(5, 13), (0.2, 0.3, 0.5)), "e8ff15bf79e5aae3"),
    (lambda: random_circulants(20, seed=5, max_n=24), "f5ddde5f8d64451f"),
    (lambda: random_circulants(20, seed=7, max_n=24), "20f1b06a8997a3fb"),
    (lambda: pairwise_corpus(max_n=14, seed=11, random_count=30), "58e6dd74dd3e7eff"),
    (lambda: pairwise_corpus(max_n=14, seed=42, random_count=30), "c4e686586a65f8b8"),
    (lambda: vertex_transitive_corpus(count=60, seed=1, max_n=16), "b9717a450c0c785c"),
    (lambda: vertex_transitive_corpus(count=60, seed=7, max_n=16), "ff2cce5960761a1d"),
], ids=["connected-1", "connected-3", "circulants-5", "circulants-7", "pairwise-11",
        "pairwise-42", "vt-1", "vt-7"])
def test_seeded_families_are_pinned(build, digest):
    assert _sha1_prefix(graph_to_graph6(g) for g in build()) == digest


@pytest.mark.parametrize("seed, digest", [(3, "2e0ac41bcbf4315c"), (5, "441b5292218a4291")])
def test_random_corpus_spec_is_pinned(seed, digest):
    # the instance ids of the verify corpus random:, which embed each graph's graph6
    spec = CorpusSpec.parse("random:count=20,max_n=12", seed=seed)
    assert _sha1_prefix(name for name, _ in corpus_instances(spec)) == digest


def test_draw_takes_the_first_count_graphs_within_its_tries():
    g = cycle_graph(3)
    draws = iter([None, g, None, g, g])
    assert _draw(2, 4, lambda: next(draws), "triangles") == [g, g]
    assert next(draws) is g  # no draw past the count
    draws = iter([None, g, None, g])
    with pytest.raises(ValueError, match="^could not draw triangles$"):
        _draw(2, 3, lambda: next(draws), "triangles")
    assert _draw(0, 0, lambda: g, "nothing") == []


def test_pairwise_corpus_raises_when_it_draws_too_few(monkeypatch):
    monkeypatch.setattr(corpus, "is_biconnected", lambda g: False)
    with pytest.raises(ValueError, match="^could not draw random_count=2 2-connected graphs"
                                         " on 6..8 vertices$"):
        pairwise_corpus(max_n=8, seed=1, random_count=2)
    assert len(pairwise_corpus(max_n=8, seed=1, random_count=0)) == 17  # the fixed zoo


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
