"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. The pairwise criteria share one exhaustive scan over the
2-connected corpus so the suite stays inside its time budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from cyclemeet.auxgraph import (
    SameSegmentPairError,
    build_aux,
    l_set,
    pairwise_noncrossing,
    type_census,
)
from cyclemeet.corpus import (
    is_biconnected,
    load_connected_corpus,
    pairwise_corpus,
    vertex_transitive_corpus,
)
from cyclemeet.cycles import (
    enumerate_longest_cycles,
    is_t_transversal,
    longest_cycle_length,
    min_pairwise_intersection,
)
from cyclemeet.exchange import certificate_is_sound, improve_by_exchange, lemma33_certificate, type00_certificate
from cyclemeet.flow import (
    edge_bound_holds,
    max_disjoint_paths,
    min_vertex_cut,
    separator_bound_holds,
    xy_separator,
)
from cyclemeet.graphs import petersen_graph, vertex_connectivity
from cyclemeet.transitive import is_vertex_transitive

from hosts import lemma33_host, menger_instances, nine_vertex_sample, type00_host
from oracles import longest_cycle_by_permutations, max_noncrossing_family

PETERSEN_M_STAR = 8  # regression constant: exact min pairwise 9-cycle intersection

ENUM_LIMIT = 120  # pairwise corpus membership requires full enumeration below this


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@dataclass
class PairScan:
    """Collected results of the exhaustive pairwise sweep (criteria 4, 7, 8, 10)."""

    graphs: int = 0
    pairs: int = 0
    pairs_le12: int = 0
    pairs_m_le10: int = 0
    transversal_failures: int = 0
    type00_violations: int = 0
    lset_violations: int = 0
    prop22_violations: int = 0
    edge_bound_violations: int = 0
    separator_bound_violations: int = 0
    improve_successes: int = 0
    max_m: int = 0
    per_n: dict = field(default_factory=dict)


@pytest.fixture(scope="session")
def pair_scan() -> PairScan:
    scan = PairScan()
    for g in pairwise_corpus(max_n=14, seed=11, random_count=45):
        cs = enumerate_longest_cycles(g, limit=ENUM_LIMIT)
        if cs.truncated:
            continue
        scan.graphs += 1
        scan.per_n[g.n] = scan.per_n.get(g.n, 0) + 1
        two_conn = is_biconnected(g)
        cl = cs.cycles
        for i in range(len(cl)):
            for j in range(i + 1, len(cl)):
                x, y = cl[i], cl[j]
                scan.pairs += 1
                if g.n <= 12:
                    scan.pairs_le12 += 1
                shared = x.vertex_set() & y.vertex_set()
                m = len(shared)
                scan.max_m = max(scan.max_m, m)
                rep = xy_separator(g, x, y)
                if not separator_bound_holds(len(rep.cut), m):
                    scan.separator_bound_violations += 1
                if two_conn and not is_t_transversal(g, cs, rep.cut, 1):
                    scan.transversal_failures += 1
                xs, ys = x.vertex_set() - shared, y.vertex_set() - shared
                if shared and m <= 10:
                    scan.pairs_m_le10 += 1
                if shared and xs and ys and m <= 10:
                    # empty remainders leave an edgeless F, vacuously clean
                    family = max_disjoint_paths(
                        g, xs, ys, allowed=frozenset(range(g.n)) - shared
                    )
                    try:
                        f = build_aux(g, x, y, family)
                    except SameSegmentPairError:
                        scan.prop22_violations += 1
                        continue
                    if type_census(f)[(0, 0)]:
                        scan.type00_violations += 1
                    if not pairwise_noncrossing(sorted(l_set(f))):
                        scan.lset_violations += 1
                    if not edge_bound_holds(f.edge_count(), f.m):
                        scan.edge_bound_violations += 1
                if improve_by_exchange(g, x, y) is not None:
                    scan.improve_successes += 1
    return scan


def test_criterion_1_oracle_equivalence():
    start = time.time()
    graphs = load_connected_corpus(8) + nine_vertex_sample(count=120, seed=5)
    mismatches = 0
    checked = 0
    for g in graphs:
        try:
            ours = longest_cycle_length(g)
        except ValueError:
            continue  # trees have no cycle; the oracle agrees by construction
        checked += 1
        if ours != longest_cycle_by_permutations(g):
            mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        mismatches == 0 and elapsed < 600,
        f"search == permutation oracle on {checked} connected graphs (n <= 9), "
        f"{mismatches} mismatches, {elapsed:.0f}s",
    )


def test_criterion_2_petersen_facts():
    g = petersen_graph()
    c = longest_cycle_length(g)
    vt = is_vertex_transitive(g)
    k = vertex_connectivity(g)
    cs = enumerate_longest_cycles(g)
    m_star, _ = min_pairwise_intersection(cs)
    ok = c == 9 and vt and k == 3 and m_star == PETERSEN_M_STAR and m_star >= 3
    report(2, ok, f"Petersen: c={c}, vertex-transitive={vt}, k={k}, m*={m_star}")


def test_criterion_3_babai_bound():
    corpus = vertex_transitive_corpus(count=200, seed=7, max_n=32)
    assert len(corpus) >= 200
    failures = sum(1 for g in corpus if longest_cycle_length(g) ** 2 < 3 * g.n)
    report(3, failures == 0, f"c(G) >= sqrt(3n) on {len(corpus)} vertex-transitive graphs, "
                             f"{failures} failures")


def test_criterion_4_separator_is_transversal(pair_scan: PairScan):
    ok = pair_scan.transversal_failures == 0 and pair_scan.pairs_le12 > 0
    report(4, ok, f"xy-separator 1-transversal on {pair_scan.pairs_le12} pairs "
                  f"(2-connected, n <= 12), {pair_scan.transversal_failures} exceptions")


def test_criterion_5_menger_equality():
    instances = menger_instances(count=1000, seed=3, max_n=40)
    errors = 0
    for g, a, b in instances:
        fam = max_disjoint_paths(g, a, b)
        rep = min_vertex_cut(g, a, b)
        try:
            fam.validate(g)
            rep.witness.validate(g)
        except ValueError:
            errors += 1
            continue
        if len(rep.cut) != len(fam) or rep.max_disjoint_paths != len(fam):
            errors += 1
    report(5, errors == 0, f"|cut| == |max disjoint paths| on {len(instances)} instances, "
                           f"{errors} exceptions")


def test_criterion_6_noncrossing_tightness():
    start = time.time()
    wrong = [m for m in range(2, 9) if max_noncrossing_family(m)[0] != 2 * m - 3]
    elapsed = time.time() - start
    report(6, not wrong and elapsed < 60,
           f"max non-crossing family = 2m-3 for m=2..8 in {elapsed:.2f}s")


def test_criterion_7_lemma_cleanliness(pair_scan: PairScan):
    bad = (pair_scan.type00_violations + pair_scan.lset_violations
           + pair_scan.prop22_violations)
    ok = bad == 0 and pair_scan.pairs_m_le10 > 0
    report(7, ok, f"zero type-(0,0) 4-cycles and non-crossing L-sets over "
                  f"{pair_scan.pairs_m_le10} pairs with m <= 10, {bad} exceptions")


def test_criterion_8_quantitative_chain(pair_scan: PairScan):
    bad = pair_scan.edge_bound_violations + pair_scan.separator_bound_violations
    ok = bad == 0 and pair_scan.pairs > 0
    report(8, ok, f"e(F) and separator bounds hold on {pair_scan.pairs} pairs "
                  f"(max m = {pair_scan.max_m}), {bad} exceptions")


def test_criterion_9_certificate_soundness():
    produced = 0
    sound = 0
    surplus_exact = 0
    g, x, y, family = type00_host()
    f = build_aux(g, x, y, family)
    cert = type00_certificate(g, x, y, f, (1, 1, 2, 2))
    produced += 1
    sound += certificate_is_sound(g, x, y, cert)
    surplus_exact += cert.surplus == 2 * sum(len(p) - 1 for p in family.paths)

    g, x, y, family = type00_host(long_path=True)
    f = build_aux(g, x, y, family)
    cert = type00_certificate(g, x, y, f, (1, 1, 2, 2))
    produced += 1
    sound += certificate_is_sound(g, x, y, cert)
    surplus_exact += cert.surplus == 2 * sum(len(p) - 1 for p in family.paths)

    for bit_x in (0, 1):
        for bit_y in (0, 1):
            g, x, y, family = lemma33_host(bit_x, bit_y)
            f = build_aux(g, x, y, family)
            cert = lemma33_certificate(g, x, y, f, (1, 1, 3, 2), (2, 3, 4, 4))
            produced += 1
            if cert is not None and cert.case == (bit_x, bit_y):
                sound += certificate_is_sound(g, x, y, cert)
    ok = produced == 6 and sound == 6 and surplus_exact == 2
    report(9, ok, f"{sound}/{produced} certificates sound under independent validation "
                  f"(type-(0,0) surplus exact on {surplus_exact}/2)")


def test_criterion_10_maximality_consistency(pair_scan: PairScan):
    ok = pair_scan.improve_successes == 0 and pair_scan.pairs > 0
    report(10, ok, f"improve_by_exchange absent on all {pair_scan.pairs} longest-cycle "
                   f"pairs, {pair_scan.improve_successes} improvements")


def test_criterion_11_determinism(tmp_path):
    from cyclemeet.cli import main

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code_a = main(["verify", "--suite", "all", "--seed", "42", "--out", str(a)])
    code_b = main(["verify", "--suite", "all", "--seed", "42", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report(11, code_a == 0 and code_b == 0 and identical,
           f"verify --suite all --seed 42 twice: exit {code_a}/{code_b}, "
           f"byte-identical={identical}")
