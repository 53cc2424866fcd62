import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeet.auxgraph import (
    AuxGraph,
    FourCycleType,
    SameSegmentPairError,
    SegmentDecomposition,
    build_aux,
    classify_four_cycle,
    cut_at,
    decompose,
    is_crossing,
    l_set,
    pair_aux,
    pairwise_noncrossing,
    supersaturation_report,
)
from cyclemeet.cycles import CycleEmbedding
from cyclemeet.flow import PathFamily, max_disjoint_paths, xy_separator
from cyclemeet.graphs import Graph
from cyclemeet.harness import json_text

from hosts import prop22_host, type00_host
from oracles import max_noncrossing_by_subsets, max_noncrossing_family, noncrossing_witness


def host_c6_overlap():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 6), (6, 7), (7, 8), (8, 0)]
    g = Graph(9, edges)
    x = CycleEmbedding.from_sequence(g, [0, 1, 2, 3, 4, 5])
    y = CycleEmbedding.from_sequence(g, [0, 1, 2, 6, 7, 8])
    return g, x, y


def test_decompose_c6_example():
    g, x, y = host_c6_overlap()
    dec = decompose(g, x, y)
    assert dec.m == 3
    assert dec.m_order_x == (0, 1, 2)
    assert dec.x_segments == ((), (), (3, 4, 5))
    assert dec.y_segments == ((), (), (6, 7, 8))


@pytest.mark.parametrize("seq, marks, cut", [
    # the marks from the first one met; the run before it ends the last run
    ((0, 1, 2, 3, 4, 5, 6), {2, 5}, ((2, 5), ((3, 4), (6, 0, 1)))),
    ((0, 1, 2, 3, 4, 5, 6), {0, 5}, ((0, 5), ((1, 2, 3, 4), (6,)))),
    ((6, 0, 1, 2, 3, 4, 5), {5, 2}, ((2, 5), ((3, 4), (6, 0, 1)))),
    ((3, 1, 4), {4}, ((4,), ((3, 1),))),
    ((3, 1, 4), {3, 1, 4}, ((3, 1, 4), ((), (), ()))),
])
def test_cut_at(seq, marks, cut):
    assert cut_at(seq, marks) == cut


def test_decompose_same_cycle():
    g, x, _ = host_c6_overlap()
    dec = decompose(g, x, x)
    assert dec.m == 6
    assert all(seg == () for seg in dec.x_segments)


def test_decompose_shared_vertex():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    x = CycleEmbedding.from_sequence(g, [0, 1, 2])
    y = CycleEmbedding.from_sequence(g, [2, 3, 4])
    dec = decompose(g, x, y)
    assert dec.m == 1
    assert len(dec.x_segments[0]) == 2 and len(dec.y_segments[0]) == 2


def test_decompose_disjoint_cycles_error():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    x = CycleEmbedding.from_sequence(g, [0, 1, 2])
    y = CycleEmbedding.from_sequence(g, [3, 4, 5])
    with pytest.raises(ValueError, match="empty intersection"):
        decompose(g, x, y)


def test_build_aux_k22_host():
    g, x, y, family = type00_host()
    f = build_aux(g, x, y, family)
    assert f.m == 2
    assert f.edges == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert f.edge_count() == len(family)


def test_pair_aux_is_none_without_two_remainders():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    x = CycleEmbedding.from_sequence(g, [0, 1, 2])
    y = CycleEmbedding.from_sequence(g, [3, 4, 5])
    assert pair_aux(g, x, y) is None  # disjoint cycles
    assert pair_aux(g, x, x) is None  # both remainders empty


def test_pair_aux_lets_the_same_segment_pair_through():
    g, x, y, path1, path2 = prop22_host()
    with pytest.raises(SameSegmentPairError) as info:
        pair_aux(g, x, y)
    assert {info.value.path1, info.value.path2} == {path1, path2}


def test_pair_aux_matches_build_aux_over_a_maximum_family():
    g, x, y, _ = type00_host()
    shared = x.vertex_set() & y.vertex_set()
    family = max_disjoint_paths(g, x.vertex_set() - shared, y.vertex_set() - shared,
                                allowed=frozenset(range(g.n)) - shared)
    expected = build_aux(g, x, y, family)
    f = pair_aux(g, x, y)
    assert f.edges == expected.edges == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert f.witness == expected.witness


def test_pair_aux_reads_the_separator_family_and_no_other_pairs():
    # F's edges are the separator's family paths, so the cut has m + e(F)
    # vertices; a report of the reversed pair has the remainders swapped
    g, x, y, _ = type00_host()
    rep = xy_separator(g, x, y)
    f = pair_aux(g, x, y, rep)
    assert sorted(f.witness.values()) == sorted(rep.witness.paths)
    assert len(rep.cut) == rep.m + f.edge_count() == 6
    with pytest.raises(ValueError, match="family terminals are not the cycle remainders"):
        pair_aux(g, y, x, rep)


def test_pair_aux_rejects_a_cycle_that_is_not_in_the_graph():
    # pair_aux takes its family as validated by the flow, but still checks the
    # cycles: a vertex sequence that misses an edge of g raises, on either side
    g, x, y, _ = type00_host()  # x = (0, 2, 3, 1, 4, 5), y = (0, 6, 7, 1, 8, 9)
    # each fake shares 0 and 1 with the other cycle, and keeps one vertex of
    # its own side, so both remainders are nonempty; g has no edge 01
    fake_x, fake_y = CycleEmbedding((0, 1, 2)), CycleEmbedding((0, 1, 6))
    assert not (fake_x.is_valid(g) or fake_y.is_valid(g))
    for first, second in ((x, fake_y), (fake_x, y)):
        with pytest.raises(ValueError, match="cycles do not live in the host graph"):
            pair_aux(g, first, second)


def test_build_aux_empty_family():
    g, x, y = host_c6_overlap()
    fam = PathFamily(paths=(), source_set=x.vertex_set() - {0, 1, 2},
                     target_set=y.vertex_set() - {0, 1, 2})
    f = build_aux(g, x, y, fam)
    assert f.edge_count() == 0 and f.m == 3


def test_build_aux_rejects_terminal_in_shared():
    g, x, y, family = type00_host()
    bad = PathFamily(paths=((0, 6),), source_set=family.source_set | {0},
                     target_set=family.target_set)
    with pytest.raises(ValueError):
        build_aux(g, x, y, bad)


def test_build_aux_same_pair_raises_prop22_event():
    # two disjoint paths into the same (X_1, Y_1) pair
    x_edges = [(0, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 7), (7, 0)]
    y_edges = [(0, 8), (8, 9), (9, 10), (10, 1), (1, 11), (11, 12), (12, 13), (13, 0)]
    g = Graph(14, x_edges + y_edges + [(2, 8), (3, 10)])
    x = CycleEmbedding.from_sequence(g, [0, 2, 3, 4, 1, 5, 6, 7])
    y = CycleEmbedding.from_sequence(g, [0, 8, 9, 10, 1, 11, 12, 13])
    fam = PathFamily(paths=((2, 8), (3, 10)),
                     source_set=frozenset({2, 3, 4, 5, 6, 7}),
                     target_set=frozenset({8, 9, 10, 11, 12, 13}))
    with pytest.raises(SameSegmentPairError) as info:
        build_aux(g, x, y, fam)
    assert {info.value.path1, info.value.path2} == {(2, 8), (3, 10)}


def test_classification_four_panels():
    g, x, y, family = type00_host()
    f = build_aux(g, x, y, family)
    assert classify_four_cycle(f, 1, 2, 1, 2) == FourCycleType(0, 0)
    with pytest.raises(ValueError, match="not a 4-cycle"):
        classify_four_cycle(f, 1, 2, 1, 3)


def _relabeled_aux(swap_x_ends=False, swap_y_ends=False):
    """type00 host with one endpoint pair swapped to flip alpha or beta."""
    x_edges = [(0, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 0)]
    y_edges = [(0, 6), (6, 7), (7, 1), (1, 8), (8, 9), (9, 0)]
    if swap_x_ends:
        pe = [(2, 6), (3, 8), (5, 7), (4, 9)]  # swap u-endpoints on X_2
    elif swap_y_ends:
        pe = [(2, 6), (3, 9), (4, 7), (5, 8)]  # swap v-endpoints on Y_2
    else:
        pe = [(2, 6), (3, 8), (4, 7), (5, 9)]
    g = Graph(10, x_edges + y_edges + pe)
    x = CycleEmbedding.from_sequence(g, [0, 2, 3, 1, 4, 5])
    y = CycleEmbedding.from_sequence(g, [0, 6, 7, 1, 8, 9])
    fam = PathFamily(paths=tuple(sorted(pe)), source_set=frozenset({2, 3, 4, 5}),
                     target_set=frozenset({6, 7, 8, 9}))
    return build_aux(g, x, y, fam)


def test_classification_other_types():
    assert classify_four_cycle(_relabeled_aux(swap_x_ends=True), 1, 2, 1, 2) == (1, 0)
    assert classify_four_cycle(_relabeled_aux(swap_y_ends=True), 1, 2, 1, 2) == (0, 1)


def test_type_invariance_under_reversal():
    # canonical form absorbs reflection, so reversed input sequences coincide
    g, x, y, family = type00_host()
    xr = CycleEmbedding.from_sequence(g, tuple(reversed(x.vertices)))
    yr = CycleEmbedding.from_sequence(g, tuple(reversed(y.vertices)))
    assert xr == x and yr == y
    f = build_aux(g, x, y, family)
    assert classify_four_cycle(f, 1, 2, 1, 2) == FourCycleType(0, 0)


def test_type_invariance_under_relabeling():
    # relabeling can flip which orientation/rotation is canonical; the type
    # of the corresponding 4-cycle must never move
    import random

    g, x, y, family = type00_host()
    rng = random.Random(2)
    for _ in range(12):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        hx = CycleEmbedding.from_sequence(h, [perm[v] for v in x.vertices])
        hy = CycleEmbedding.from_sequence(h, [perm[v] for v in y.vertices])
        fam = PathFamily(
            paths=tuple(sorted(tuple(perm[v] for v in p) for p in family.paths)),
            source_set=frozenset(perm[v] for v in family.source_set),
            target_set=frozenset(perm[v] for v in family.target_set),
        )
        fh = build_aux(h, hx, hy, fam)
        assert set(fh.four_cycle_types.values()) == {FourCycleType(0, 0)}


def test_four_cycles_listing():
    g, x, y, family = type00_host()
    f = build_aux(g, x, y, family)
    assert list(f.four_cycle_types) == [(1, 1, 2, 2)]


def _synthetic_aux(m, edges):
    """AuxGraph whose witnesses are one-vertex stand-ins, for counting-only operations."""
    dec = SegmentDecomposition(
        m=m,
        m_order_x=tuple(range(m)),
        m_order_y=tuple(range(m)),
        x_segments=tuple(() for _ in range(m)),
        y_segments=tuple(() for _ in range(m)),
    )
    return AuxGraph(m=m, witness={e: (0,) for e in edges}, decomposition=dec)


def test_common_neighbor_counts():
    k22 = _synthetic_aux(2, {(1, 1), (1, 2), (2, 1), (2, 2)})
    assert k22.common_neighbors == {(1, 2): (1, 2)}
    empty = _synthetic_aux(3, set())
    assert empty.common_neighbors == {(1, 2): (), (1, 3): (), (2, 3): ()}
    k27 = _synthetic_aux(7, {(i, j) for i in (1, 2) for j in range(1, 8)})
    assert k27.common_neighbors[(1, 2)] == tuple(range(1, 8))


def test_l_set_threshold():
    k27 = _synthetic_aux(7, {(i, j) for i in (1, 2) for j in range(1, 8)})
    assert l_set(k27) == {(1, 2)}
    k26 = _synthetic_aux(6, {(i, j) for i in (1, 2) for j in range(1, 7)})
    assert l_set(k26) == set()


def test_l_set_matches_brute_scan_random():
    rng = random.Random(23)
    for _ in range(10):
        m = 6
        edges = {(i, j) for i in range(1, m + 1) for j in range(1, m + 1)
                 if rng.random() < 0.8}
        f = _synthetic_aux(m, edges)
        brute = set()
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                a = sum(1 for t in range(1, m + 1)
                        if (i, t) in edges and (j, t) in edges)
                if a >= 7:
                    brute.add((i, j))
        assert l_set(f) == brute


def test_is_crossing_examples():
    assert is_crossing((1, 3), (2, 4))
    assert not is_crossing((1, 4), (2, 3))
    assert not is_crossing((1, 2), (2, 3))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 12), st.integers(1, 12)),
       st.tuples(st.integers(1, 12), st.integers(1, 12)))
def test_is_crossing_symmetric(p1, p2):
    a = (min(p1), max(p1))
    b = (min(p2), max(p2))
    if a[0] == a[1] or b[0] == b[1]:
        return
    assert is_crossing(a, b) == is_crossing(b, a)


def test_noncrossing_witness_is_valid():
    for m in range(2, 10):
        fam = noncrossing_witness(m)
        assert len(fam) == 2 * m - 3
        assert pairwise_noncrossing(fam)


def test_max_noncrossing_matches_subset_oracle():
    for m in range(2, 7):
        size, fam = max_noncrossing_family(m)
        assert size == max_noncrossing_by_subsets(m)
        assert pairwise_noncrossing(fam) and len(fam) == size


def test_max_noncrossing_tightness_through_eight():
    for m in range(2, 9):
        size, fam = max_noncrossing_family(m)
        assert size == 2 * m - 3
        assert pairwise_noncrossing(fam)


def test_max_noncrossing_domain():
    with pytest.raises(ValueError):
        max_noncrossing_family(1)
    with pytest.raises(ValueError):
        max_noncrossing_family(13)


def test_supersaturation_regular_case():
    kmm = _synthetic_aux(3, {(i, j) for i in range(1, 4) for j in range(1, 4)})
    rep = supersaturation_report(kmm)
    assert rep.assumption_met
    assert rep.edge_count == 9
    assert rep.sum_common == 9
    assert rep.sum_lower_bound == Fraction(9 * 6, 6)
    assert rep.sum_ok and rep.l_ok and rep.edge_bound_ok


def test_supersaturation_matching_boundary():
    matching = _synthetic_aux(4, {(i, i) for i in range(1, 5)})
    rep = supersaturation_report(matching)
    assert rep.assumption_met
    assert rep.sum_common == 0 and rep.sum_lower_bound == 0
    assert rep.sum_ok


def test_supersaturation_below_assumption():
    sparse = _synthetic_aux(4, {(1, 1)})
    rep = supersaturation_report(sparse)
    assert not rep.assumption_met
    assert rep.sum_ok is None and rep.l_ok is None
    assert "skipped" in rep.to_json_dict()["note"]


_K33 = {(i, j) for i in range(1, 4) for j in range(1, 4)}
_TWO_SQUARES_AND_A_MATCHING = {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (4, 4)}


@pytest.mark.parametrize("m, edges, text", [
    # e(F) >= m: the five inequality fields are filled, the bounds as floats
    pytest.param(3, _K33, (
        '{\n  "assumption_met": true,\n  "edge_bound": 17.931676725154986,\n'
        '  "edge_bound_ok": true,\n  "edge_count": 9,\n  "l_lower_bound": -3.0,\n'
        '  "l_ok": true,\n  "l_size": 0,\n  "m": 3,\n  "note": null,\n'
        '  "sum_common": 9,\n  "sum_lower_bound": 9.0,\n  "sum_ok": true\n}\n'), id="K33"),
    pytest.param(4, _TWO_SQUARES_AND_A_MATCHING, (
        '{\n  "assumption_met": true,\n  "edge_bound": 27.298221281347036,\n'
        '  "edge_bound_ok": true,\n  "edge_count": 6,\n  "l_lower_bound": -8.625,\n'
        '  "l_ok": true,\n  "l_size": 0,\n  "m": 4,\n  "note": null,\n'
        '  "sum_common": 2,\n  "sum_lower_bound": 1.5,\n  "sum_ok": true\n}\n'),
        id="fractional-bounds"),
    # e(F) < m: the inequality fields are null and the note says why
    pytest.param(4, {(1, 1)}, (
        '{\n  "assumption_met": false,\n  "edge_bound": 27.298221281347036,\n'
        '  "edge_bound_ok": null,\n  "edge_count": 1,\n  "l_lower_bound": null,\n'
        '  "l_ok": null,\n  "l_size": 0,\n  "m": 4,\n'
        '  "note": "assumption e(F) >= m not met; inequalities skipped",\n'
        '  "sum_common": 0,\n  "sum_lower_bound": null,\n  "sum_ok": null\n}\n'),
        id="below-assumption"),
])
def test_supersaturation_report_json_is_pinned(m, edges, text):
    assert json_text(supersaturation_report(_synthetic_aux(m, edges)).to_json_dict()) == text


def test_supersaturation_random_graphs_hold():
    rng = random.Random(5)
    for _ in range(20):
        m = 6
        edges = set()
        while len(edges) < 12:
            edges.add((rng.randrange(1, m + 1), rng.randrange(1, m + 1)))
        rep = supersaturation_report(_synthetic_aux(m, edges))
        assert rep.assumption_met and rep.sum_ok and rep.l_ok
