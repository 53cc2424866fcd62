import hashlib
import itertools
from collections import Counter

import pytest

from functools import cached_property

from cyclemeet import auxgraph
from cyclemeet.auxgraph import (
    AuxGraph,
    SameSegmentPairError,
    build_aux,
    classify_four_cycle,
    l_set,
    pair_aux,
    supersaturation_report,
    type_census,
)
from cyclemeet.corpus import pairwise_corpus
from cyclemeet.cycles import BudgetExceededError, CycleEmbedding, enumerate_longest_cycles
from cyclemeet.exchange import (
    certificate_is_sound,
    improve_by_exchange,
    improve_by_four_cycles,
    lemma33_certificate,
    prop22_certificate,
    type00_certificate,
)
from cyclemeet.graphs import Graph, cycle_graph, petersen_graph

from hosts import (
    exchange_hosts,
    lemma33_host,
    lemma33_host_long_path,
    lemma33_shared_y_host,
    prop22_host,
    random_cycle_pairs,
    type00_host,
)


# -- prop22 -------------------------------------------------------------------


def test_prop22_lengthens_the_cycle():
    g, x, y, p1, p2 = prop22_host()
    out = prop22_certificate(g, x, y, p1, p2).q1
    # |X| - |X_i[u1,u2]| + |L1| + |Y_j[v1,v2]| + |L2| = 8 - 1 + 1 + 2 + 1
    assert out.length == 11
    assert out.is_valid(g)


def test_prop22_certificate_pair_covers_both():
    g, x, y, p1, p2 = prop22_host()
    cert = prop22_certificate(g, x, y, p1, p2)
    assert cert.origin == "prop22"
    assert cert.surplus == 2 * 2  # two unit paths, each used twice
    assert certificate_is_sound(g, x, y, cert)


def test_prop22_tie_still_wins():
    # equal bridged stretches: surplus comes from the connecting paths alone
    x_edges = [(0, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 7), (7, 0)]
    y_edges = [(0, 8), (8, 9), (9, 10), (10, 1), (1, 11), (11, 12), (12, 13), (13, 0)]
    g = Graph(14, x_edges + y_edges + [(2, 8), (3, 9)])
    x = CycleEmbedding.from_sequence(g, [0, 2, 3, 4, 1, 5, 6, 7])
    y = CycleEmbedding.from_sequence(g, [0, 8, 9, 10, 1, 11, 12, 13])
    out = prop22_certificate(g, x, y, (2, 8), (3, 9)).q1
    assert out.length == 8 - 1 + 1 + 1 + 1 == 10


def test_prop22_rejects_shared_endpoint():
    g, x, y, p1, _ = prop22_host()
    with pytest.raises(ValueError, match="disjoint"):
        prop22_certificate(g, x, y, p1, p1).q1


def test_prop22_rejects_split_segments():
    # paths landing on different X-segments violate the precondition
    g, x, y, _, _ = prop22_host()
    h = Graph(14, list(g.edges()) + [(5, 11)])
    x2 = CycleEmbedding.from_sequence(h, x.vertices)
    y2 = CycleEmbedding.from_sequence(h, y.vertices)
    with pytest.raises(ValueError, match="segment pair"):
        prop22_certificate(h, x2, y2, (2, 8), (5, 11)).q1


# -- type (0,0) ----------------------------------------------------------------


def test_type00_certificate_unit_paths():
    g, x, y, family = type00_host()
    f = build_aux(g, x, y, family)
    cert = type00_certificate(g, x, y, f, (1, 1, 2, 2))
    assert cert.origin == "type00"
    assert cert.surplus == 8 == 2 * 4
    assert certificate_is_sound(g, x, y, cert)
    # the certificate really is a pair of cycles in the host
    assert cert.q1.is_valid(g) and cert.q2.is_valid(g)


def test_type00_certificate_longer_path():
    g, x, y, family = type00_host(long_path=True)
    f = build_aux(g, x, y, family)
    cert = type00_certificate(g, x, y, f, (1, 1, 2, 2))
    assert cert.surplus == 10 == 2 * (1 + 1 + 2 + 1)
    assert certificate_is_sound(g, x, y, cert)


def test_type00_wrong_type_rejected():
    g, x, y, family = lemma33_host(1, 1)
    f = build_aux(g, x, y, family)
    assert classify_four_cycle(f, 1, 3, 1, 2) == (1, 0)
    with pytest.raises(ValueError, match="wrong type"):
        type00_certificate(g, x, y, f, (1, 1, 3, 2))


# -- lemma 3.3 ----------------------------------------------------------------


@pytest.mark.parametrize("bit_x", [0, 1])
@pytest.mark.parametrize("bit_y", [0, 1])
def test_lemma33_all_four_orderings(bit_x, bit_y):
    g, x, y, family = lemma33_host(bit_x, bit_y)
    f = build_aux(g, x, y, family)
    assert classify_four_cycle(f, 1, 3, 1, 2) == (1, 0)
    assert classify_four_cycle(f, 2, 4, 3, 4) == (1, 0)
    cert = lemma33_certificate(g, x, y, f, (1, 1, 3, 2), (2, 3, 4, 4))
    assert cert is not None
    assert cert.origin == "lemma33"
    assert cert.case == (bit_x, bit_y)
    assert cert.surplus == 2 * 8  # eight unit paths
    assert certificate_is_sound(g, x, y, cert)


def test_lemma33_with_longer_path():
    g, x, y, family = lemma33_host_long_path(0, 1)
    f = build_aux(g, x, y, family)
    cert = lemma33_certificate(g, x, y, f, (1, 1, 3, 2), (2, 3, 4, 4))
    assert cert is not None
    assert cert.surplus == 2 * (7 + 2)  # seven unit paths plus one of length two
    assert certificate_is_sound(g, x, y, cert)


def test_lemma33_hypothesis_mismatch_returns_none():
    g, x, y, family = lemma33_host(0, 0)
    f = build_aux(g, x, y, family)
    # same 4-cycle twice: X-pairs not crossing
    assert lemma33_certificate(g, x, y, f, (1, 1, 3, 2), (1, 1, 3, 2)) is None
    # type-(0,0) inputs are not this lemma's configuration
    g2, x2, y2, family2 = type00_host()
    f2 = build_aux(g2, x2, y2, family2)
    assert lemma33_certificate(g2, x2, y2, f2, (1, 1, 2, 2), (1, 1, 2, 2)) is None


def test_lemma33_crossing_y_pairs_returns_none():
    # shift the second 4-cycle onto Y-pair (2,4), which crosses (1,2)? no:
    # use (2,3) vs (1,2): shares an element -> hypothesis fails
    g, x, y, family = lemma33_host(0, 0)
    f = build_aux(g, x, y, family)
    assert lemma33_certificate(g, x, y, f, (1, 1, 3, 2), (2, 1, 4, 3)) is None


def test_lemma33_y_pairs_sharing_an_index_return_none():
    g, x, y, family = lemma33_shared_y_host()
    f = build_aux(g, x, y, family)
    assert f.four_cycle_types == {(1, 1, 3, 2): (1, 0), (2, 2, 4, 3): (1, 0)}
    assert lemma33_certificate(g, x, y, f, (1, 1, 3, 2), (2, 2, 4, 3)) is None
    assert improve_by_four_cycles(g, x, y, f) is None


def test_the_restitching_search_honours_its_node_budget():
    # the four Lemma 3.3 hosts' searches take 1,441, 1,420, 1,320 and 1,453
    # nodes, and the type-(0,0) host's 80; one node fewer raises the cycle
    # search's budget error
    hosts = [lemma33_host(*bits) for bits in itertools.product((0, 1), repeat=2)]
    for (g, x, y, family), nodes in zip([*hosts, type00_host()], (1441, 1420, 1320, 1453, 80)):
        f = build_aux(g, x, y, family)
        assert improve_by_four_cycles(g, x, y, f, nodes) is not None
        with pytest.raises(BudgetExceededError,
                           match=f"^search budget of {nodes - 1} node expansions exceeded$"):
            improve_by_four_cycles(g, x, y, f, nodes - 1)


@pytest.mark.parametrize("budget", [0, -5])
def test_the_restitching_search_refuses_a_budget_below_one(budget):
    # as the cycle and automorphism searches do, before any node is expanded
    for g, x, y, family in (type00_host(), lemma33_host(0, 0)):
        f = build_aux(g, x, y, family)
        with pytest.raises(ValueError, match="^search budget must be at least 1$"):
            improve_by_four_cycles(g, x, y, f, budget)
    g, x, y, family = type00_host()
    f = build_aux(g, x, y, family)
    with pytest.raises(ValueError, match="^search budget must be at least 1$"):
        type00_certificate(g, x, y, f, (1, 1, 2, 2), budget)


def test_each_aux_graph_types_each_four_cycle_once(monkeypatch):
    # the census, the L-set, the supersaturation counts and the exchanges all
    # read one typing per 4-cycle and one count of common neighbours
    counts = Counter()
    type_of = auxgraph._four_cycle_type
    common_of = vars(AuxGraph)["common_neighbors"].func

    def typed(f, *fourcycle):
        counts[fourcycle] += 1
        return type_of(f, *fourcycle)

    def common(f):
        counts["common_neighbors"] += 1
        return common_of(f)

    counted = cached_property(common)
    counted.__set_name__(AuxGraph, "common_neighbors")
    monkeypatch.setattr(auxgraph, "_four_cycle_type", typed)
    monkeypatch.setattr(AuxGraph, "common_neighbors", counted)
    g, x, y, family = lemma33_host(0, 0)
    f = build_aux(g, x, y, family)
    assert type_census(f)[(1, 0)] == 2
    assert l_set(f) == set() and supersaturation_report(f).l_size == 0
    assert improve_by_four_cycles(g, x, y, f) is not None
    assert counts.pop("common_neighbors") == 1
    assert counts == Counter({(1, 1, 3, 2): 1, (2, 3, 4, 4): 1})


# -- certificate pins -------------------------------------------------------------


def _type00_certificates(g, x, y, f):
    return [
        type00_certificate(g, x, y, f, fourcycle)
        for fourcycle, kind in f.four_cycle_types.items()
        if kind == (0, 0)
    ]


def _pinned_certificates():
    certs = []
    for g, x, y, family in exchange_hosts(2500, seed=7):
        try:
            certs += _type00_certificates(g, x, y, build_aux(g, x, y, family))
        except SameSegmentPairError as err:
            certs.append(prop22_certificate(g, x, y, err.path1, err.path2))
    for g, x, y in random_cycle_pairs(400, seed=8):
        try:
            f = pair_aux(g, x, y)
        except SameSegmentPairError as err:
            certs.append(prop22_certificate(g, x, y, err.path1, err.path2))
        else:
            certs += [] if f is None else _type00_certificates(g, x, y, f)
    hosts = [lemma33_host(*bits) for bits in itertools.product((0, 1), repeat=2)]
    for g, x, y, family in hosts + [lemma33_host_long_path(0, 1)]:
        f = build_aux(g, x, y, family)
        certs.append(lemma33_certificate(g, x, y, f, (1, 1, 3, 2), (2, 3, 4, 4)))
    return certs


def test_certificates_are_pinned():
    # every certificate's cycles, in order, on generated and hand-built hosts
    certs = _pinned_certificates()
    assert Counter(c.origin for c in certs) == {"prop22": 561, "type00": 140, "lemma33": 5}
    text = repr([(c.origin, c.q1.vertices, c.q2.vertices, c.surplus, c.case) for c in certs])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "785523b01da06c914bf5f5bfb5edb32f50881d4b684500980ee3d45c0f00fe86"
    )


# -- the driver ----------------------------------------------------------------


def test_improve_returns_none_for_disjoint_or_identical():
    g = cycle_graph(6)
    x = CycleEmbedding.from_sequence(g, range(6))
    assert improve_by_exchange(g, x, x) is None


def test_improve_finds_prop22_configuration():
    g, x, y, _, _ = prop22_host()
    improved = improve_by_exchange(g, x, y)
    assert improved is not None
    q1, q2 = improved
    assert q1.length + q2.length > x.length + y.length
    assert (q1.edge_set() | q2.edge_set()) >= (x.edge_set() | y.edge_set())


def test_improve_finds_type00_configuration():
    g, x, y, _ = type00_host()
    improved = improve_by_exchange(g, x, y)
    assert improved is not None
    q1, q2 = improved
    assert q1.length + q2.length == x.length + y.length + 8


def test_improve_never_fires_on_longest_pairs():
    for g in pairwise_corpus(max_n=10, seed=3, random_count=6):
        try:
            cs = enumerate_longest_cycles(g, limit=40)
        except ValueError:
            continue
        if cs.truncated:
            continue
        cycles = cs.cycles[:8]
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                assert improve_by_exchange(g, cycles[i], cycles[j]) is None


def test_improve_fuzz_on_arbitrary_cycle_pairs():
    # any improvement returned for any cycle pair must be a covering, longer,
    # valid pair; silence is acceptable per pair, but some pairs must improve
    improved = 0
    for g, x, y in random_cycle_pairs(400, seed=29):
        out = improve_by_exchange(g, x, y)
        if out is None:
            continue
        improved += 1
        q1, q2 = out
        assert q1.is_valid(g) and q2.is_valid(g)
        assert q1.length + q2.length > x.length + y.length
        assert (q1.edge_set() | q2.edge_set()) >= (x.edge_set() | y.edge_set())
    assert improved > 0


def test_improve_on_nonmaximal_petersen_cycles():
    g = petersen_graph()
    x = CycleEmbedding.from_sequence(g, [0, 4, 3, 2, 1, 6, 8, 5])
    y = CycleEmbedding.from_sequence(g, [2, 3, 4, 9, 7])
    improved = improve_by_exchange(g, x, y)
    assert improved is not None
    q1, q2 = improved
    assert q1.is_valid(g) and q2.is_valid(g)
    assert sorted((q1.length, q2.length)) == [8, 9]
    assert (q1.edge_set() | q2.edge_set()) >= (x.edge_set() | y.edge_set())
