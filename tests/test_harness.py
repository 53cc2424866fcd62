import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclemeet
from cyclemeet import auxgraph, cycles, flow
from cyclemeet.auxgraph import FourCycleType, build_aux, l_set
from cyclemeet.cli import main
from cyclemeet.corpus import load_connected_corpus, two_triangles_shared_vertex
from cyclemeet import harness
from cyclemeet.cycles import (
    DEFAULT_BUDGET,
    CycleEmbedding,
    CycleSet,
    enumerate_longest_cycles,
    is_t_transversal,
)
from cyclemeet.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_graph6,
    graph_to_graph6,
    petersen_graph,
    vertex_connectivity,
    wheel_graph,
)
from cyclemeet.flow import max_disjoint_paths, xy_separator
from cyclemeet.harness import (
    CorpusSpec,
    InstanceFacts,
    Outcome,
    VerificationReport,
    analyze_instance,
    json_text,
    reports_to_json,
    run_corpus,
    verify_babai,
    verify_devos,
    verify_smith,
    verify_thm14,
)
from cyclemeet.transitive import circulant

from hosts import (
    lemma33_host,
    path_graph,
    prop22_host,
    relabelled,
    symmetric_connection_sets,
    type00_host,
)
from oracles import is_t_transversal_by_full_scan, min_pairwise_intersection_by_full_scan

DATA = Path(__file__).parent / "data"


def facts(g):
    return InstanceFacts(g, DEFAULT_BUDGET)


def test_verify_babai():
    assert verify_babai(facts(cycle_graph(9))).status == "pass"
    assert verify_babai(facts(petersen_graph())).status == "pass"
    out = verify_babai(facts(wheel_graph(6)))
    assert out.status == "skipped"  # hub breaks transitivity


def test_verify_smith():
    out = verify_smith(facts(complete_graph(5)))
    assert out.status == "pass" and out.lhs == 5 and out.rhs == 4
    pet = verify_smith(facts(petersen_graph()))
    assert pet.status == "pass" and pet.lhs == 8 and pet.rhs == 3
    w6 = verify_smith(facts(wheel_graph(6)))
    assert w6.status == "pass" and w6.lhs >= 3


def test_verify_thm14():
    g = two_triangles_shared_vertex()
    cs = enumerate_longest_cycles(g)
    x, y = cs.cycles[0], cs.cycles[1]
    out = verify_thm14(g, x, y, xy_separator(g, x, y))
    assert out.status == "pass" and out.lhs == 1
    same = verify_thm14(g, x, x, xy_separator(g, x, x))
    assert same.status == "pass"


def test_verify_thm14_disjoint_cycles_allow_one_cut_vertex():
    # FxCGW is two triangles joined by the path 2-3-4, so its two longest
    # cycles are disjoint and one vertex separates them; with the path
    # doubled (2-3-4 and 0-7-5), no single vertex does
    detail = "disjoint cycles lie in different blocks; ceiling is one cut vertex"
    for g, ok in ((graph_from_graph6("FxCGW"), True),
                  (Graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6),
                             (5, 6), (0, 7), (7, 5)]), False)):
        x = CycleEmbedding.from_sequence(g, [0, 1, 2])
        y = CycleEmbedding.from_sequence(g, [4, 5, 6])
        rep = xy_separator(g, x, y)
        assert rep.m == 0 and rep.bound == 0.0 and rep.bound_satisfied is ok
        out = verify_thm14(g, x, y, rep)
        assert (out.status, out.lhs, out.rhs, out.detail) == (
            "pass" if ok else "fail", len(rep.cut), 0.0, detail)


def test_verify_devos():
    g = cycle_graph(7)
    out = verify_devos(facts(g), frozenset({0}), 1)
    assert out.status == "pass" and out.lhs == 7 and out.rhs == 7.0
    allv = verify_devos(facts(petersen_graph()), frozenset(range(10)), 3)
    assert allv.status == "pass"
    notrans = verify_devos(facts(petersen_graph()), frozenset({0}), 1)
    assert notrans.status == "skipped"


def test_babai_smith_and_devos_skip_the_graphs_without_a_cycle():
    # K1 and K2 are connected and vertex-transitive but have no cycle, so
    # devos has no longest cycle to read a transversal against
    for g in (complete_graph(1), complete_graph(2)):
        f = facts(g)
        assert f.vertex_transitive and f.cycles is None
        assert verify_babai(f).status == verify_smith(f).status == "skipped"
        assert verify_devos(f, frozenset({0}), 1) == Outcome(
            "devos", "skipped", detail="needs a graph with a cycle")


def _two_k5(second: tuple[int, ...]) -> Graph:
    """A K5 on 0..4 and a K5 on the five vertices ``second``."""
    return Graph(max(second) + 1, [e for part in ((0, 1, 2, 3, 4), second)
                                   for e in combinations(part, 2)])


@pytest.mark.parametrize("g, outcome", [
    # κ = 1, with 24 longest 5-cycles
    pytest.param(_two_k5((0, 5, 6, 7, 8)),
                 Outcome("smith", "skipped", detail="connectivity below 2"),
                 id="two-K5-sharing-a-vertex"),
    pytest.param(_two_k5((5, 6, 7, 8, 9)),
                 Outcome("smith", "skipped", detail="needs a connected graph"),
                 id="two-disjoint-K5"),
    # 2-connected, with 12 longest cycles: the check applies and the set is cut short
    pytest.param(complete_graph(5),
                 Outcome("smith", "inconclusive", detail="enumeration truncated"), id="K5"),
])
def test_smith_on_a_truncated_cycle_set_is_inconclusive_only_where_it_applies(
        monkeypatch, g, outcome):
    monkeypatch.setattr(harness, "ENUMERATION_LIMIT", 2)
    f = facts(g)
    assert f.cycles.truncated and len(f.cycles) == 2
    assert verify_smith(f) == outcome


def test_babai_smith_and_devos_fail_with_their_witnesses():
    # no real graph breaks these theorems, so each check reads one false fact:
    # c(C12) = 5 < sqrt(36), κ(K5) = 6 above its m_min of 5, and c(C6) = 5
    # with A = {0} a 1-transversal, 5 * 1 < 1 * 6. The fail carries the
    # graph6 and the check's own witness; thm14's fail is pinned below
    babai_facts = facts(cycle_graph(12))
    vars(babai_facts)["_length"] = 5
    assert verify_babai(babai_facts) == Outcome(
        "babai", "fail", lhs=5, rhs=6.0, witness={"graph6": "KhCGGC@?G?o@", "c": 5})
    smith_facts = facts(complete_graph(5))
    vars(smith_facts)["connectivity"] = 6
    assert verify_smith(smith_facts) == Outcome(
        "smith", "fail", lhs=5, rhs=6,
        witness={"graph6": "D~{", "x": [0, 1, 2, 3, 4], "y": [0, 1, 2, 4, 3]})
    devos_facts = facts(cycle_graph(6))
    vars(devos_facts)["_cycles"] = dataclasses.replace(devos_facts.cycles, length=5)
    assert verify_devos(devos_facts, frozenset({0}), 1) == Outcome(
        "devos", "fail", lhs=5, rhs=6.0, witness={"graph6": "EhEG", "a": [0], "t": 1})


def test_smith_above_connectivity_eight_is_observed_without_assertion():
    # κ(K10) = 9; two Hamiltonian cycles share all 10 vertices
    f = facts(complete_graph(10))
    vars(f)["_cycles"] = CycleSet(10, (tuple(range(10)), (0, 1, 2, 3, 4, 5, 6, 7, 9, 8)), 10)
    assert verify_smith(f) == Outcome(
        "smith", "observed", lhs=10, rhs=9,
        detail="conjecture status for k > 8, reported without assertion")


def test_truncated_enumeration():
    k9 = facts(complete_graph(9))  # 20160 Hamiltonian cycles, above the enumeration limit
    assert k9.cycles.truncated
    smith = verify_smith(k9)
    assert smith.status == "inconclusive" and smith.detail == "enumeration truncated"
    assert verify_babai(k9).lhs == 9  # c(G) is exact on a truncated set


def count_calls(monkeypatch, *names):
    """Replace harness functions by counting wrappers; returns name -> call count."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(harness, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)
    return counts


def test_analyze_instance_computes_each_fact_once(monkeypatch):
    counts = count_calls(
        monkeypatch, "enumerate_longest_cycles", "vertex_connectivity", "vertex_orbit_of_zero",
        "min_pairwise_intersection", "is_connected", "is_regular",
    )
    report = analyze_instance("petersen", facts(petersen_graph()), CorpusSpec("smoke"), "all")
    assert report.worst_status() == "pass"
    assert report.cycle_length == 9 and report.connectivity == 3 and report.m_min == 8
    # m_min is read by the report and by smith, connectedness by babai, smith and
    # the orbit (2 and 3 calls when each read its own); the orbit by the
    # vertex-transitivity flag and κ, regularity by the report and the orbit
    assert counts == {
        "enumerate_longest_cycles": 1,
        "vertex_connectivity": 1,
        "vertex_orbit_of_zero": 1,
        "min_pairwise_intersection": 1,
        "is_connected": 1,
        "is_regular": 1,
    }


def test_exhausted_enumeration_runs_once(monkeypatch):
    counts = count_calls(monkeypatch, "enumerate_longest_cycles", "longest_cycle_length")
    spec = CorpusSpec("smoke", budget=50)
    report = analyze_instance("petersen", InstanceFacts(petersen_graph(), spec.budget), spec, "all")
    status = {o.name: o.status for o in report.outcomes}
    assert status["enumeration"] == "inconclusive"
    assert status["babai"] == "inconclusive"
    assert status["smith"] == "inconclusive"
    assert report.cycle_length is None and report.connectivity == 3
    # babai reads c(G) from the enumeration that ran, and keeps its error
    assert counts == {"enumerate_longest_cycles": 1, "longest_cycle_length": 0}


def test_exhausted_automorphism_search_is_inconclusive_and_runs_once(monkeypatch):
    counts = count_calls(monkeypatch, "vertex_orbit_of_zero", "longest_cycle_length",
                         "enumerate_longest_cycles")
    facts = InstanceFacts(petersen_graph(), 2)  # each automorphism search takes 3 nodes
    babai = verify_babai(facts)
    devos = verify_devos(facts, frozenset(range(10)), 1)
    message = "search budget of 2 node expansions exceeded"
    assert (babai.status, babai.detail) == ("inconclusive", message)
    assert (devos.status, devos.detail) == ("inconclusive", message)
    # κ takes the plain flows past the kept error, and searches nothing again
    assert facts.connectivity == 3
    # the kept error is raised again; no cycle search ran behind it
    assert counts == {"vertex_orbit_of_zero": 1, "longest_cycle_length": 0,
                      "enumerate_longest_cycles": 0}


def test_a_graph_above_64_vertices_gets_its_orbit_searched(monkeypatch):
    # the node budget is the automorphism search's only limit: the orbit of
    # C70 relabelled, where x -> x + 1 is no automorphism, is searched as a
    # small graph's is, and κ reads it
    counts = count_calls(monkeypatch, "vertex_orbit_of_zero")
    searches = count_searches(monkeypatch)
    facts = InstanceFacts(relabelled(cycle_graph(70), 0), DEFAULT_BUDGET)
    assert verify_babai(facts).status == "pass"
    assert verify_devos(facts, frozenset(range(70)), 1).status == "pass"
    assert len(facts.orbit) == 70
    assert searches == {"flows": 0, "automorphism searches": 1}
    # the orbit rule: one flow per partner pair {w, maps[w]⁻¹(0)}, no neighbour
    # pair; the plain flows take 67 non-neighbours and one neighbour pair, 68 in all
    assert facts.connectivity == 2
    assert searches["flows"] == 34
    assert counts == {"vertex_orbit_of_zero": 1}
    # a graph that is not regular is not vertex-transitive: babai skips it, with no search
    assert verify_babai(InstanceFacts(path_graph(70), DEFAULT_BUDGET)).status == "skipped"
    assert counts == {"vertex_orbit_of_zero": 1}


def test_an_exhausted_orbit_search_above_64_vertices_is_inconclusive(monkeypatch):
    # the budget guards the search on a large graph as on a small one: the
    # error is kept, both checks name it, and κ falls back to the plain flows.
    # C70 relabelled is searched; C70 itself needs no search, so no budget
    message = "search budget of 1 node expansions exceeded"
    c70 = relabelled(cycle_graph(70), 0)
    with pytest.raises(cycles.BudgetExceededError, match=f"^{message}$"):
        harness.vertex_orbit_of_zero(c70, 1)
    assert len(harness.vertex_orbit_of_zero(cycle_graph(70), 1)) == 70
    counts = count_calls(monkeypatch, "vertex_orbit_of_zero")
    searches = count_searches(monkeypatch)
    facts = InstanceFacts(c70, 1)
    babai = verify_babai(facts)
    devos = verify_devos(facts, frozenset(range(70)), 1)
    assert (babai.status, babai.detail) == ("inconclusive", message)
    assert (devos.status, devos.detail) == ("inconclusive", message)
    searches["flows"] = 0
    assert facts.connectivity == 2
    assert searches["flows"] == 68
    assert counts == {"vertex_orbit_of_zero": 1}


def count_searches(monkeypatch):
    """Count the local flows and the automorphism searches, wherever they are called from."""
    from cyclemeet import transitive

    counts = {"flows": 0, "automorphism searches": 0}
    for module, name, key in ((flow, "local_vertex_connectivity", "flows"),
                              (transitive, "automorphism_mapping", "automorphism searches")):
        def wrapper(*args, _key=key, _original=getattr(module, name), **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return counts


# κ reads the orbit of 0 where the suite's checks searched it (babai, devos,
# all), after them, and no suite searches it for κ alone: smith and thm14 run
# the plain flows. Without the orbit, every row below would run the plain
# flows: 732 on the circulants, 501 on vt and 471 on default. A labelled
# circulant's orbit is seeded by its translation and takes no search; before
# that, the searches were 50, 50, 78, 70 and 73, with the same flows
@pytest.mark.parametrize("corpus, seed, suite, flows, searches", [
    ("circulants:count=50,max_n=24", 5, "babai", 203, 0),
    ("circulants:count=50,max_n=24", 5, "all", 203, 0),
    ("vt:count=60,max_n=16", 1, "all", 163, 36),
    ("vt:count=60,max_n=16", 1, "devos", 270, 36),
    ("vt:count=60,max_n=16", 1, "smith", 501, 0),
    ("vt:count=60,max_n=16", 1, "thm14", 501, 0),
    ("default", 42, "all", 268, 46),
    ("default", 42, "smith", 471, 0),
])
def test_flow_and_automorphism_search_counts_are_pinned(monkeypatch, corpus, seed, suite, flows,
                                                        searches):
    counts = count_searches(monkeypatch)
    reports = run_corpus(CorpusSpec.parse(corpus, seed=seed), suite)
    assert all(r.worst_status() != "fail" for r in reports)
    assert counts == {"flows": flows, "automorphism searches": searches}


@pytest.mark.parametrize("suite, flows", [("babai", 2), ("all", 2), ("smith", 9)])
def test_petersen_flow_count_is_pinned(monkeypatch, suite, flows):
    counts = count_searches(monkeypatch)
    report = analyze_instance("petersen", facts(petersen_graph()), None, suite)
    assert report.connectivity == 3
    assert counts["flows"] == flows


def test_exhausted_length_search_runs_once(monkeypatch):
    counts = count_calls(monkeypatch, "enumerate_longest_cycles", "longest_cycle_length")
    spec = CorpusSpec("smoke", budget=40)  # Petersen's length search takes 46 nodes from floor 10
    report = analyze_instance("petersen", InstanceFacts(petersen_graph(), spec.budget), spec, "babai")
    # the babai outcome carries the budget error; no enumeration outcome repeats it
    assert [(o.name, o.status) for o in report.outcomes] == [("babai", "inconclusive")]
    assert report.cycle_length is None and report.truncated is None and report.connectivity == 3
    assert report.observations == {}
    assert counts == {"enumerate_longest_cycles": 0, "longest_cycle_length": 1}


@pytest.mark.parametrize("args, inconclusive", [
    (["--corpus", "exhaustive7", "--budget", "20"], 0),
    (["--corpus", "smoke", "--seed", "1", "--budget", "2"], 1),
    (["--corpus", "vt:count=60,max_n=16", "--seed", "1", "--budget", "20"], 1),
])
def test_babai_suite_is_inconclusive_only_where_babai_applies(tmp_path, args, inconclusive):
    # an exhausted length search leaves a report open only through the babai
    # outcome, never where babai is skipped (34 and 12 reports said so before);
    # a Hamiltonian cycle from the rotation walk or from a circulant's
    # translation needs no search, so only the other instances can exhaust a
    # small budget (3 on each of the last two corpora before the translation)
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "babai", *args, "--out", str(out)])
    assert code == (2 if inconclusive else 0)
    payload = json.loads(out.read_text())
    assert payload["summary"]["inconclusive"] == inconclusive
    for r in payload["instances"]:
        assert [o["name"] for o in r["outcomes"]] == ["babai"]


def test_babai_suite_runs_only_the_length_search(monkeypatch):
    # a circulant's c(G) = n is built from its translation, so only the other
    # graphs reach the length search (all 20 circulants did before)
    counts = count_calls(monkeypatch, "enumerate_longest_cycles", "longest_cycle_length")
    for corpus, size, searched in (("circulants:count=20,max_n=16", 20, 0),
                                   ("vt:count=60,max_n=16", 60, 10)):
        counts.update(enumerate_longest_cycles=0, longest_cycle_length=0)
        reports = run_corpus(CorpusSpec.parse(corpus, seed=1), "babai")
        assert len(reports) == size and all(r.worst_status() == "pass" for r in reports)
        assert counts == {"enumerate_longest_cycles": 0, "longest_cycle_length": searched}
        for r in reports:
            assert r.cycle_length is not None
            # fields read off the cycle set are null; truncated must not read as "complete"
            assert (r.cycle_count, r.truncated, r.m_min, r.separator_size, r.separator_bound) == (
                None, None, None, None, None)


def test_length_is_built_only_where_the_orbit_is_already_searched(monkeypatch):
    # c(G) = n comes from a circulant's orbit maps once a check has searched
    # them; the length alone starts no orbit search, and runs its own
    counts = count_calls(monkeypatch, "longest_cycle_length", "vertex_orbit_of_zero")
    g = circulant(12, {1, 5, 7, 11})
    assert facts(g).length == 12
    assert counts == {"longest_cycle_length": 1, "vertex_orbit_of_zero": 0}
    f = facts(g)
    assert f.vertex_transitive and f.length == 12
    assert counts == {"longest_cycle_length": 1, "vertex_orbit_of_zero": 1}
    # instance 9 of circulants:count=40,max_n=100 seed 3, whose walk closes a
    # 67-cycle; its length search from floor 68 took about 17 minutes
    f = facts(circulant(68, {17, 28, 40, 51}))
    assert f.vertex_transitive and f.length == 68
    # a relabelled circulant's n-cycle map comes from the search
    f = facts(relabelled(cycle_graph(70), 0))
    assert f.vertex_transitive and f.length == 70
    # Petersen's graph has no 10-cycle automorphism: its length is searched
    f = facts(petersen_graph())
    assert f.vertex_transitive and f.length == 9
    assert counts == {"longest_cycle_length": 2, "vertex_orbit_of_zero": 4}


def test_an_exhausted_exchange_search_leaves_exchange_absent_inconclusive():
    # the pair of a Lemma 3.3 host is not longest, so the exchange finds a
    # longer pair; at budget 1 its restitching search runs out instead, and the
    # check names the budget: it is neither skipped nor passed
    g, x, y, _ = lemma33_host(0, 0)
    cs = CycleSet(12, tuple(sorted((x.vertices, y.vertices))), g.n)
    pairs = [(x, y, xy_separator(g, x, y))]
    for budget, exchange in ((1, ("inconclusive", "search budget of 1 node expansions exceeded")),
                             (DEFAULT_BUDGET, ("fail", ""))):
        stats = {}
        outcomes = harness._structural_checks(InstanceFacts(g, budget), cs, pairs, stats)
        assert {o.name: (o.status, o.detail) for o in outcomes} == {
            **{name: ("pass", "") for name in harness.STRUCTURAL_CHECKS[:-1]},
            "exchange_absent": exchange}
        assert stats == {"structural_pairs_checked": 1}


def test_babai_circulants_workload_runs_no_length_search(monkeypatch):
    # the rotation walk certifies every instance of the babai-circulants
    # benchmark Hamiltonian, so none runs a search (26,532 nodes before)
    calls = []
    run = cycles._Search.run

    def counting_run(self):
        calls.append(self.g)
        return run(self)

    monkeypatch.setattr(cycles._Search, "run", counting_run)
    reports = run_corpus(CorpusSpec.parse("circulants:count=50,max_n=24", seed=5), "babai")
    assert len(reports) == 50 and all(r.worst_status() == "pass" for r in reports)
    assert all(r.cycle_length == r.n for r in reports)
    assert calls == []


def test_babai_suite_reads_c_from_the_setup_enumeration(monkeypatch):
    counts = count_calls(monkeypatch, "enumerate_longest_cycles", "longest_cycle_length")
    reports = run_corpus(CorpusSpec.parse("default", seed=42), "babai")
    assert len(reports) == 72 and all(r.cycle_length is not None for r in reports)
    # the default filter enumerated every graph, so no length search runs
    assert counts == {"enumerate_longest_cycles": 75, "longest_cycle_length": 0}


def test_length_read_before_the_cycles_agrees_with_them(monkeypatch):
    counts = count_calls(monkeypatch, "enumerate_longest_cycles", "longest_cycle_length")
    graphs = [petersen_graph(), complete_graph(9), wheel_graph(6),
              graph_from_graph6(PAIRWISE12_18)]
    for g in graphs:
        f = facts(g)
        length = f.length
        assert f.cycles.length == length == f.length
    assert counts == {"enumerate_longest_cycles": 4, "longest_cycle_length": 4}


def test_default_corpus_enumerates_each_graph_once(monkeypatch):
    counts = count_calls(monkeypatch, "enumerate_longest_cycles")
    setup = harness.corpus_instances
    after_setup = []

    def counted_setup(spec):
        instances = setup(spec)
        after_setup.append(counts["enumerate_longest_cycles"])
        return instances

    monkeypatch.setattr(harness, "corpus_instances", counted_setup)
    reports = run_corpus(CorpusSpec.parse("default", seed=42), "all")
    assert len(reports) == 72
    # one enumeration per non-forest generated graph (3 are dropped), none in analysis
    assert after_setup == [75] and counts["enumerate_longest_cycles"] == 75


def count_module_calls(monkeypatch, *functions):
    """Count calls as the benchmark tracer does: wrap each function under every
    cyclemeet module attribute bound to it. Returns name -> call count."""
    counts = {fn.__name__: 0 for fn in functions}
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "cyclemeet" or name.startswith("cyclemeet."))]
    for fn in functions:
        def wrapper(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


def test_each_checked_pair_is_built_once(monkeypatch):
    counts = count_module_calls(
        monkeypatch, flow.xy_separator, flow.min_vertex_cut, flow.max_disjoint_paths,
        auxgraph.decompose, auxgraph._aux_of, auxgraph.build_aux, harness.verify_thm14,
    )
    report = analyze_instance("petersen", facts(petersen_graph()), CorpusSpec("smoke"), "all")
    assert report.worst_status() == "pass"
    # Petersen has 20 longest cycles, so both scans reach PAIR_LIMIT
    assert report.stats == {"thm14_pairs_checked": 25, "structural_pairs_checked": 25}
    # one separator per distinct ordered pair of vertex sets among the 25
    # checked pairs (15), the m_min pair (pair 0) among them; 13 of the 15
    # leave both remainders nonempty and run the one flow, in G - M. 23 of the
    # 25 pairs do, and get a decomposition and an aux graph built from their
    # separator's family, so no second family is found. The family is
    # validated where it is found, so the public build_aux, which validates it
    # again, is not called; and only the reported pair's outcome is built
    assert counts == {"xy_separator": 15, "min_vertex_cut": 13, "max_disjoint_paths": 0,
                      "decompose": 23, "_aux_of": 23, "build_aux": 0, "verify_thm14": 1}


def test_one_flow_per_checked_pair_on_exhaustive7(monkeypatch):
    # a separator's one flow, in G - M, gives both the thm14 cut and the family
    # the aux graph is built from: 504 flows for the distinct checked pairs
    # with two nonempty remainders, and an aux graph for each of the 787
    # checked pairs that have them. A change may lower this pin, never raise it
    counts = count_module_calls(monkeypatch, flow.min_vertex_cut, flow.max_disjoint_paths,
                                auxgraph.pair_aux)
    reports = run_corpus(CorpusSpec.parse("exhaustive7"), "all")
    assert len(reports) == 996 and all(r.worst_status() != "fail" for r in reports)
    assert counts == {"min_vertex_cut": 504, "max_disjoint_paths": 0, "pair_aux": 787}


@pytest.mark.parametrize("corpus, seed, pinned", [
    ("exhaustive7", 0, (724, 259, 676, 12)),
    ("default", 42, (48, 0, 134, 0)),
    ("default", 1, (52, 1, 140, 0)),
    ("vt:count=60,max_n=16", 1, (33, 0, 96, 0)),
    ("random:count=200,max_n=12", 3, (126, 42, 101, 0)),
])
def test_pigeonhole_rules_match_the_full_scans(monkeypatch, corpus, seed, pinned):
    # every m_min the analysis reads and every is_t_transversal it asks (each
    # Prop. 2.1 cut and each devos set) equals the scan with no pigeonhole
    # rule. pinned: (sets with two or more cycles, those whose m_min lies above
    # max(2c - n, 0), transversal calls, those that |A| - (n - c) >= t leaves
    # to the scan)
    sets = above = calls = scanned = 0
    m_min, transversal = harness.min_pairwise_intersection, harness.is_t_transversal

    def checked_m_min(cs):
        nonlocal sets, above
        result = m_min(cs)
        assert result == min_pairwise_intersection_by_full_scan(cs)
        sets += 1
        above += result[0] > max(2 * cs.length - cs.n, 0)
        return result

    def checked_transversal(g, cs, a, t):
        nonlocal calls, scanned
        verdict = transversal(g, cs, a, t)
        assert verdict == is_t_transversal_by_full_scan(g, cs, a, t), (graph_to_graph6(g), a, t)
        calls += 1
        scanned += len(a) - (g.n - cs.length) < t
        return verdict

    monkeypatch.setattr(harness, "min_pairwise_intersection", checked_m_min)
    monkeypatch.setattr(harness, "is_t_transversal", checked_transversal)
    run_corpus(CorpusSpec.parse(corpus, seed), "all")
    assert (sets, above, calls, scanned) == pinned


@pytest.mark.parametrize("corpus, seed, pinned", [
    ("default", 42, {"masks": 78, "is_t_transversal": 0, "intersections": 7}),
    ("exhaustive7", 0, {"masks": 1840, "is_t_transversal": 12, "intersections": 483}),
])
def test_pigeonhole_rules_spare_the_masks_and_scans(monkeypatch, corpus, seed, pinned):
    # the rules change no output, so only the work shows them. A Hamiltonian
    # set's masks are built without reading a cycle, m_min stops at the first
    # pair sharing 2c - n, and a transversal that counting settles builds no
    # mask of its own and scans nothing. Without the rules a pass builds
    # 5,819 and 7,149 cycle masks, scans 134 and 676 times and takes 11,784
    # and 8,330 intersections. A change may lower this pin, never raise it.
    # cycles.mask_of calls are counted by caller, and a mask it builds counts
    # each & it takes part in
    counts = {"masks": 0, "is_t_transversal": 0, "intersections": 0}
    real = cycles.mask_of

    class CountedMask(int):
        def __and__(self, other):
            counts["intersections"] += 1
            return int(self) & int(other)

        __rand__ = __and__

    def counted_mask_of(vertices):
        counts[sys._getframe(1).f_code.co_name] += 1
        return CountedMask(real(vertices))

    monkeypatch.setattr(cycles, "mask_of", counted_mask_of)
    reports = run_corpus(CorpusSpec.parse(corpus, seed), "all")
    assert all(r.worst_status() != "fail" for r in reports)
    assert counts == pinned


def test_cycle_objects_are_built_only_for_the_cycles_read(monkeypatch):
    # a cycle set keeps the search's tuples; the default filter reads only
    # whether a set is complete, so its three dropped graphs (15,000 longest
    # cycles) and the kept ones build no CycleEmbedding in set-up, and the
    # analysis wraps at most the PAIR_LIMIT + 1 cycles the pair scans read,
    # plus the m_min witness pair
    built = []
    init = CycleEmbedding.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycleEmbedding, "__init__", counting_init)
    spec = CorpusSpec("default", seed=42)
    instances = harness.corpus_instances(spec)
    assert len(instances) == 72 and not built
    most = 0
    for instance_id, instance in instances:
        built.clear()
        analyze_instance(instance_id, instance, spec, "all")
        most = max(most, len(built))
    assert most == harness.PAIR_LIMIT + 1 + 2


# pairwise12[18]: 2-connected and not vertex-transitive (so devos never reads
# is_t_transversal); its 5 longest cycles give 10 pairs, each with an aux graph
PAIRWISE12_18 = "HkSg_SD"


@pytest.mark.parametrize("name", [
    "is_t_transversal", "type_census", "pairwise_noncrossing", "supersaturation_report",
])
def test_structural_scan_stops_at_the_first_failing_pair(monkeypatch, name):
    k = 3
    instance = facts(graph_from_graph6(PAIRWISE12_18))
    g = instance.g
    pairs = list(combinations(instance.cycles.cycles, 2))
    x, y = pairs[k - 1]
    # the Prop. 2.1 scan runs once per distinct cut, so its failure is injected
    # on the k-th distinct cut, which the first pair with that cut reports
    cuts = [xy_separator(g, *p).cut for p in pairs]
    bad_cut = list(dict.fromkeys(cuts))[k - 1]
    shared = x.vertex_set() & y.vertex_set()
    family = max_disjoint_paths(g, x.vertex_set() - shared, y.vertex_set() - shared,
                                allowed=frozenset(range(g.n)) - shared)
    aux = build_aux(g, x, y, family)
    pair = {"x": list(x.vertices), "y": list(y.vertices)}
    sat = harness.supersaturation_report(aux)
    check, failing, witness = {
        "is_t_transversal": (
            "prop21_transversal", lambda *args: False, {"cut": sorted(bad_cut)},
        ),
        "type_census": ("lemma32_clean", lambda f: {FourCycleType(0, 0): 1}, pair),
        "pairwise_noncrossing": ("lemma35_clean", lambda pairs: False, {"l_set": sorted(l_set(aux))}),
        "supersaturation_report": (
            "supersaturation",
            lambda f: dataclasses.replace(sat, assumption_met=True, sum_ok=False),
            {"m": sat.m, "edges": sat.edge_count},
        ),
    }[name]
    original = getattr(harness, name)
    calls = []

    def fail_on_kth_call(*args):
        calls.append(args)
        return failing(*args) if len(calls) == k else original(*args)

    def fail_on_bad_cut(g, cs, a, t):
        return failing(g, cs, a, t) if a == bad_cut else original(g, cs, a, t)

    if name == "is_t_transversal":
        checked = cuts.index(bad_cut) + 1
        assert checked == 3  # each of the ten pairs has its own cut, M itself, with m = 7
        inject = fail_on_bad_cut
    else:
        checked, inject = k, fail_on_kth_call
    monkeypatch.setattr(harness, name, inject)
    report = analyze_instance("pairwise12[18]", instance, CorpusSpec("pairwise12"), "all")
    failed = [(o.name, o.witness) for o in report.outcomes if o.status == "fail"]
    assert failed == [(check, witness)]
    structural = ["prop21_nonempty", "prop21_transversal", "lemma32_clean", "lemma35_clean",
                  "supersaturation", "exchange_absent"]
    assert [(o.name, o.status) for o in report.outcomes][-6:] == [
        (n, "fail" if n == check else "pass") for n in structural
    ]
    assert report.stats == {"thm14_pairs_checked": 10, "structural_pairs_checked": checked}


def test_thm14_reports_the_first_pair_over_the_bound(monkeypatch):
    # no real pair breaks Theorem 1.4, so one pair's separator is replaced by
    # one that does: all 9 vertices cut at m = 1, against a ceiling of
    # sqrt(10) + 1.5 (rhs keeps the real report's bound). The scan reports
    # that pair, counts the pairs up to it, and builds one outcome
    instance = facts(graph_from_graph6(PAIRWISE12_18))
    g = instance.g
    pairs = list(combinations(instance.cycles.cycles, 2))
    bad = (pairs[4][0].vertex_set(), pairs[4][1].vertex_set())
    first_bad = next(i for i, (x, y) in enumerate(pairs)
                     if (x.vertex_set(), y.vertex_set()) == bad)
    assert first_bad == 4  # the fifth pair, so neither the first nor the last of the ten
    real = harness.xy_separator

    def over_the_bound(g, x, y):
        rep = real(g, x, y)
        if (x.vertex_set(), y.vertex_set()) != bad:
            return rep
        return dataclasses.replace(rep, cut=frozenset(range(g.n)), m=1)

    monkeypatch.setattr(harness, "xy_separator", over_the_bound)
    counts = count_calls(monkeypatch, "verify_thm14")
    report = analyze_instance("pairwise12[18]", instance, CorpusSpec("pairwise12"), "all")
    x, y = pairs[first_bad]
    thm14 = [o for o in report.outcomes if o.name == "thm14_bound"]
    assert thm14 == [Outcome(
        "thm14_bound", "fail", lhs=9, rhs=real(g, x, y).bound,
        witness={"graph6": PAIRWISE12_18, "x": list(x.vertices), "y": list(y.vertices),
                 "cut": list(range(9))},
    )]
    assert report.stats["thm14_pairs_checked"] == first_bad + 1
    assert counts == {"verify_thm14": 1}


def test_shared_separators_and_transversal_verdicts_match_direct_calls(monkeypatch):
    # a separator is shared by every checked pair on the same ordered pair of
    # vertex sets, and a Prop. 2.1 verdict by every pair with the same cut;
    # each must equal the direct call, and the m_min witness the first pair of
    # cycles, in enumeration order, at the minimum
    seen = []
    pair_failure = harness._pair_failure

    def capture(g, cs, x, y, rep, two_connected, transversal, budget):
        result = pair_failure(g, cs, x, y, rep, two_connected, transversal, budget)
        verdict = transversal[rep.cut] if two_connected and rep.m else None
        seen.append((g, cs, x, y, rep, verdict))
        return result

    monkeypatch.setattr(harness, "_pair_failure", capture)
    instances = harness.corpus_instances(CorpusSpec.parse("pairwise12"))
    instances += [(f"exhaustive6[{i}]", facts(g))
                  for i, g in enumerate(load_connected_corpus(max_n=6))]
    witnessed = 0
    for instance_id, instance in instances:
        report = analyze_instance(instance_id, instance, CorpusSpec("pairwise12"), "all")
        assert report.worst_status() in ("pass", "skipped"), instance_id
        cs = instance.cycles
        if cs is None or len(cs) < 2 or cs.truncated:
            continue
        size, p, q = min(
            (len(x.vertex_set() & y.vertex_set()), p, q)
            for (p, x), (q, y) in combinations(enumerate(cs.cycles), 2)
        )
        assert cycles.min_pairwise_intersection(cs) == (size, (cs.cycles[p], cs.cycles[q]))
        assert report.separator_size == len(xy_separator(instance.g, cs.cycles[p], cs.cycles[q]).cut)
        witnessed += 1
    for g, cs, x, y, rep, verdict in seen:
        assert rep == xy_separator(g, x, y), (graph_to_graph6(g), x, y)
        if verdict is not None:
            assert verdict == is_t_transversal(g, cs, rep.cut, 1), (graph_to_graph6(g), rep.cut)
    # 121 sets with an m_min witness; the 1340 checked pairs have only 213
    # distinct ordered pairs of vertex sets, so the shared separators are hit
    distinct = {(id(cs), x.vertex_set(), y.vertex_set()) for _, cs, x, y, _, _ in seen}
    assert (witnessed, len(seen), len(distinct)) == (121, 1340, 213)


def test_analysis_leaves_setup_facts_unchanged():
    instance_id, setup_facts = harness.corpus_instances(CorpusSpec("smoke"))[0]
    before = dict(vars(setup_facts))
    report = analyze_instance(instance_id, setup_facts, CorpusSpec("smoke"), "all")
    assert report.cycle_length is not None and report.connectivity is not None
    assert vars(setup_facts) == before


def test_default_corpus_filter_uses_the_spec_budget():
    # K_kHRgwjcKcF, G?~vf_ and HzKW[NB enumerate within 400 nodes since each
    # cycle closes one way and remembered slack-zero subtrees are replayed;
    # F~~~w, listed twice, since a slack-zero state is kept across second
    # vertices (285 nodes, from 403)
    assert len(harness.corpus_instances(CorpusSpec("default", seed=1, budget=400))) == 70


def test_facts_keep_the_budget_error():
    f = InstanceFacts(petersen_graph(), 50)
    with pytest.raises(harness.BudgetExceededError) as first:
        f.cycles
    with pytest.raises(harness.BudgetExceededError) as second:
        f.cycles
    assert first.value is second.value
    with pytest.raises(harness.BudgetExceededError) as length:
        f.length
    assert length.value is first.value
    forest = InstanceFacts(path_graph(4), DEFAULT_BUDGET)
    assert forest.length is None and forest.cycles is None


def test_run_corpus_smoke_all_pass():
    spec = CorpusSpec.parse("smoke", seed=1)
    reports = run_corpus(spec, suite="all")
    assert reports
    assert all(r.worst_status() in ("pass", "observed", "skipped") for r in reports)


def test_run_corpus_exhaustive6_all_theorem_checks_pass():
    spec = CorpusSpec.parse("exhaustive6", seed=0)
    reports = run_corpus(spec, suite="all")
    assert len(reports) == 143
    assert all(r.worst_status() != "fail" for r in reports)
    assert not any(r.worst_status() == "inconclusive" for r in reports)


def test_run_corpus_seeded_circulants_pass():
    spec = CorpusSpec.parse("circulants:count=50,max_n=24", seed=5)
    reports = run_corpus(spec, suite="babai")
    assert len(reports) == 50
    assert all(r.worst_status() == "pass" for r in reports)
    ratios = [r.observations.get("connectivity_vs_two_thirds_degree") for r in reports]
    assert all(val is not None for val in ratios)


def test_reports_serialization_deterministic():
    spec = CorpusSpec.parse("smoke", seed=42)
    a = reports_to_json(run_corpus(spec, "all"), spec, "all")
    b = reports_to_json(run_corpus(spec, "all"), spec, "all")
    assert a == b
    payload = json.loads(a)
    assert payload["summary"]["failed"] == 0


def test_corpus_spec_parsing():
    spec = CorpusSpec.parse("circulants:count=5,max_n=12", seed=3)
    assert spec.kind == "circulants" and spec.params == (("count", "5"), ("max_n", "12"))
    with pytest.raises(ValueError):
        CorpusSpec.parse("circulants:count")
    with pytest.raises(ValueError):
        from cyclemeet.harness import corpus_instances

        corpus_instances(CorpusSpec.parse("nonsense"))


@pytest.mark.parametrize("kind, defaults", [
    ("vt", "count=200,max_n=32"),
    ("circulants", "count=50,max_n=24"),
    ("random", "count=50,max_n=12"),
    ("pairwise12", "random_count=30"),
])
def test_corpus_defaults_are_the_documented_ones(kind, defaults):
    # the README's corpus-spec table gives these defaults
    bare = harness.corpus_instances(CorpusSpec.parse(kind, seed=4))
    spelled = harness.corpus_instances(CorpusSpec.parse(f"{kind}:{defaults}", seed=4))
    assert [i for i, _ in bare] == [i for i, _ in spelled]


@pytest.mark.parametrize("corpus, names", [
    ("circulants:cout=3,max_n=10", "'cout'"),
    ("vt:count=3,seed=4", "'seed'"),
    ("random:count=3,random_count=4", "'random_count'"),
    ("pairwise12:count=3", "'count'"),
    ("exhaustive6:max_n=5", "'max_n'"),
    ("smoke:random_count=4", "'random_count'"),
    ("default:count=3", "'count'"),
    ("circulants:count=3,count=4", "'count' is given twice"),
    ("pairwise12:random_count=2,random_count=2", "'random_count' is given twice"),
    ("circulants:count=-1", "count must be at least 0"),
    ("random:count=-5", "count must be at least 0"),
    ("pairwise12:random_count=-1", "random_count must be at least 0"),
])
def test_cli_rejects_a_corpus_parameter_the_kind_does_not_read(capsys, corpus, names):
    # each ran before: an unread key or a repeat was ignored, a negative count ran nothing
    assert main(["verify", "--suite", "babai", "--corpus", corpus]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and names in out.err


def test_cli_rejects_an_unknown_corpus_kind(capsys):
    assert main(["verify", "--suite", "all", "--corpus", "vt7"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: unknown corpus kind 'vt7'\n"


def test_cli_verify_stops_at_the_first_failure_and_exits_one(capsys, monkeypatch):
    # no real pair breaks Theorem 1.4, so the bound test rejects every pair
    # from its 40th call on: the sixth smoke instance fails, and the run
    # stops there with the fail's witness
    real = flow.separator_bound_holds
    calls = []

    def rejects_from_the_40th_call(cut_size, m):
        calls.append(m)
        return len(calls) < 40 and real(cut_size, m)

    monkeypatch.setattr(flow, "separator_bound_holds", rejects_from_the_40th_call)
    assert main(["verify", "--suite", "thm14", "--corpus", "smoke"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"total": 6, "failed": 1, "inconclusive": 0}
    assert len(doc["instances"]) == 6 < len(harness.corpus_instances(CorpusSpec.parse("smoke")))
    assert [o["status"] for r in doc["instances"][:5] for o in r["outcomes"]] == ["pass"] * 5
    (fail,) = doc["instances"][5]["outcomes"]
    assert fail["name"] == "thm14_bound" and fail["status"] == "fail"
    assert sorted(fail["witness"]) == ["cut", "graph6", "x", "y"]


# -- the JSON writer ----------------------------------------------------------

JSON_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "caf\u00e9", "\x00\x1f\x7f\n\t\"\\/", "\U0001f600", "\ud800", "\u2028"]),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, math.inf, -math.inf, math.nan]),
    JSON_STRINGS,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"a": {}, "b": [], "c": ()})
@example([[[]], [{}], ({"": ()},)])
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    # json.dumps coerces some of these keys to strings; no payload has one
    {1: 2}, {"a": 1, 2: 3}, [{"b": {(0, 1): 0}}], {None: 1},
    {"a": [1, {2, 3}]},  # json cannot write a set either
])
def test_json_text_rejects_a_key_that_is_not_a_string(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_failed_report_is_written_as_json_dumps_writes_its_fields():
    # no corpus reaches a failure's witness: the harness stops at the failure
    witness = {"graph6": "I?h]@eOWG", "x": [0, 1, 2], "cut": (4, 5),
               "nested": {"b": None, "a": [1.5, -0.0, {"\u00e9": True}]}}
    failed = Outcome("smith", "fail", lhs=2.5, rhs=3, detail="\u03ba(G) \u2265 3, m < \u03ba",
                     witness=witness)
    passed = Outcome("babai", "pass", lhs=9, rhs=5.196152422706632)
    bare = Outcome("exchange_absent", "pass", detail="")
    report = VerificationReport(
        instance_id="t[0]:I?h]@eOWG", n=10, degree=3, connectivity=3, cycle_length=9,
        cycle_count=20, truncated=False, m_min=2, separator_size=None, separator_bound=83.5,
        outcomes=(passed, failed, bare), observations={"m_min_over_k23": 0.961499},
        stats={"thm14_pairs_checked": 1},
    )
    spec = CorpusSpec("pairwise12", params=(("random_count", "4"),), seed=3)
    expected = {
        "suite": "all",
        "corpus": {"kind": "pairwise12", "params": [["random_count", "4"]], "seed": 3},
        "instances": [{
            "instance_id": "t[0]:I?h]@eOWG", "n": 10, "degree": 3, "connectivity": 3,
            "cycle_length": 9, "cycle_count": 20, "truncated": False, "m_min": 2,
            "separator_size": None, "separator_bound": 83.5,
            "outcomes": [
                {"name": "babai", "status": "pass", "lhs": 9, "rhs": 5.196152422706632},
                {"name": "smith", "status": "fail", "lhs": 2.5, "rhs": 3,
                 "detail": "\u03ba(G) \u2265 3, m < \u03ba", "witness": witness},
                {"name": "exchange_absent", "status": "pass"},
            ],
            "observations": {"m_min_over_k23": 0.961499},
            "stats": {"thm14_pairs_checked": 1},
        }],
        "summary": {"total": 1, "failed": 1, "inconclusive": 0},
    }
    text = reports_to_json([report], spec, "all")
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def as_json_value(value):
    """The plain value json.dumps writes as json_text writes ``value``: each report
    as the dict of its fields, each outcome as the dict of its set fields."""
    if isinstance(value, (list, tuple)):
        return [as_json_value(item) for item in value]
    if isinstance(value, (VerificationReport, Outcome)):
        value = {k: v for k, v in vars(value).items()
                 if isinstance(value, VerificationReport) or (v is not None and v != "")}
    if isinstance(value, dict):
        return {k: as_json_value(v) for k, v in value.items()}
    return value


def test_json_text_writes_each_outcome_as_json_dumps_would_wherever_it_recurs():
    # json_text keeps the text of each witness-free outcome and writes it again
    # where the outcome recurs. One outcome recurs at three indents, a
    # failing report with a witness sits between two passing ones, and
    # outcomes that compare equal but are written apart (1 and 1.0, 0.0 and
    # -0.0) share a report
    passed = Outcome("babai", "pass", lhs=9, rhs=5.196152422706632)
    failed = Outcome("thm14_bound", "fail", lhs=9, rhs=69.07,
                     witness={"graph6": "HkSg_SD", "x": [0, 1, 2], "cut": (1, 2),
                              "nested": {"b": None, "a": [passed]}})
    equal_apart = (Outcome("smith", "pass", lhs=1, rhs=2), Outcome("smith", "pass", lhs=1.0, rhs=2),
                   Outcome("smith", "pass", lhs=0.0, rhs=2), Outcome("smith", "pass", lhs=-0.0, rhs=2),
                   Outcome("smith", "pass", lhs=True, rhs=2))
    assert len(set(equal_apart)) == 2  # the dataclass's equality cannot tell them apart

    def report(index, outcomes):
        return VerificationReport(
            instance_id=f"t[{index}]", n=9, degree=3, connectivity=3, cycle_length=9,
            cycle_count=5, truncated=False, m_min=7, separator_size=7, separator_bound=69.07,
            outcomes=outcomes, observations={}, stats={"thm14_pairs_checked": 10},
        )

    document = {
        "a": [passed, {"deeper": (passed,)}],
        "instances": [report(0, (passed, *equal_apart)), report(1, (passed, failed)),
                      report(2, (passed, Outcome("exchange_absent", "pass")))],
        "z": passed,
    }
    assert json_text(document) == json.dumps(as_json_value(document), indent=2,
                                             sort_keys=True) + "\n"


# -- CLI ----------------------------------------------------------------------


def test_cli_gen_and_cycles(tmp_path):
    out = tmp_path / "g.g6"
    code = main(["gen", "circulant", "--n", "5", "--conn", "1,4"])
    assert code == 0


def test_cli_pipeline(tmp_path, capsys):
    main(["gen", "circulant", "--n", "5", "--conn", "1,4"])
    g6 = capsys.readouterr().out.strip()
    path = tmp_path / "c5.g6"
    path.write_text(g6 + "\n")
    assert main(["cycles", "--in", str(path), "--enumerate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == 5 and payload["count"] == 1
    assert main(["intersect", "--in", str(path)]) == 0


def test_cli_separator_and_auxgraph(tmp_path, capsys):
    g = petersen_graph()
    path = tmp_path / "pet.g6"
    path.write_text(graph_to_graph6(g) + "\n")
    cs = enumerate_longest_cycles(g)
    x = ",".join(map(str, cs.cycles[0].vertices))
    y = ",".join(map(str, cs.cycles[1].vertices))
    assert main(["separator", "--in", str(path), "--x", x, "--y", y]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bound_satisfied"] is True
    assert main(["auxgraph", "--in", str(path), "--x", x, "--y", y]) == 0
    aux = json.loads(capsys.readouterr().out)
    assert "type_census" in aux and aux["type_census"]["(0,0)"] == 0
    assert main(["certify", "--in", str(path), "--x", x, "--y", y]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["improved"] is False


def test_cli_separator_on_disjoint_longest_cycles_passes(tmp_path, capsys):
    # two triangles joined by the path 2-3-4: m = 0, and one cut vertex is the ceiling
    path = tmp_path / "two.g6"
    path.write_text("FxCGW\n")
    assert main(["separator", "--in", str(path), "--x", "0,1,2", "--y", "4,5,6"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["cut"], rep["m"], rep["bound"], rep["bound_satisfied"]) == ([2], 0, 0.0, True)


@pytest.mark.parametrize("command", ["separator", "auxgraph", "certify"])
@pytest.mark.parametrize("cycle, bad", [("10,0,1", 10), ("0,1,2,3,-1", -1), ("-1,0,1", -1)])
def test_cli_pair_commands_name_a_cycle_vertex_out_of_range(tmp_path, capsys, command,
                                                             cycle, bad):
    # a usage error, not a traceback (vertex n) or a shift error (vertex -1);
    # a list that starts with a negative vertex is a value in either form
    path = tmp_path / "pet.g6"
    path.write_text(graph_to_graph6(petersen_graph()) + "\n")
    for x, y in ((cycle, "0,1,2,3,4"), ("0,1,2,3,4", cycle)):
        for args in ([f"--x={x}", f"--y={y}"], ["--x", x, "--y", y]):
            assert main([command, "--in", str(path), *args]) == 3
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"error: vertex {bad} not in graph of order 10\n")


# each fuzzed graph6 string with up to six of its longest cycles
_FUZZ_CYCLES = {
    graph_to_graph6(g): [",".join(map(str, c.vertices))
                         for c in enumerate_longest_cycles(g, limit=6).cycles]
    for g in (cycle_graph(5), complete_graph(5), petersen_graph(), wheel_graph(6),
              two_triangles_shared_vertex())
}
_FUZZ_CYCLES[graph_to_graph6(Graph(4, [(0, 1), (2, 3)]))] = []


# mostly ASCII, as graph6 is, with the odd character past it
_fuzz_chars = st.characters(max_codepoint=0x7f) | st.sampled_from("é\u2603")


@st.composite
def _graph6_text(draw):
    """graph6 text: valid (most often), valid with one character replaced, or any short text."""
    valid = sorted(_FUZZ_CYCLES)
    kind = draw(st.integers(0, len(valid) + 1))
    if kind < len(valid):
        return valid[kind]
    if kind == len(valid):
        text = draw(st.sampled_from(valid))
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(_fuzz_chars) + text[at + 1:]
    return draw(st.text(_fuzz_chars, max_size=12))


@st.composite
def _vertex_list(draw, cycles):
    """Any vertices, n and negatives among them, or one of the cycles, maybe with a vertex changed."""
    if not cycles or not draw(st.integers(0, 2)):
        return ",".join(map(str, draw(st.lists(st.integers(-2, 11), max_size=8))))
    vertices = draw(st.sampled_from(cycles)).split(",")
    if draw(st.booleans()):
        vertices[draw(st.integers(0, len(vertices) - 1))] = str(draw(st.integers(-2, 11)))
    return ",".join(vertices)


@st.composite
def _group_text(draw):
    """A ``cyclic`` or ``perm`` group file, with degrees and points in and out of range.

    Half are closed under inverses, so that some are a group with a Cayley graph.
    """
    n = draw(st.integers(-1, 12))
    closed = draw(st.booleans())
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(-3, 14), max_size=4))
        steps += [n - s for s in steps] if closed else []
        return f"cyclic {n}: " + ",".join(map(str, steps))
    cycles = draw(st.lists(st.lists(st.integers(-1, 12), max_size=4), max_size=4))
    cycles += [cycle[::-1] for cycle in cycles] if closed else []
    return f"perm {n}: " + "; ".join(
        "(" + " ".join(map(str, cycle)) + ")" for cycle in cycles)


@st.composite
def _cli_argv(draw):
    """A command line of one subcommand, and the text of the file it reads."""
    command = draw(st.sampled_from(
        ["gen", "cycles", "intersect", "separator", "auxgraph", "certify"]))
    if command == "gen":
        return ["gen", "cayley", "--file", "{file}"], draw(_group_text())
    text = draw(_graph6_text())
    argv = [command, "--in", "{file}"]
    if command in ("cycles", "intersect"):
        if command == "cycles" and draw(st.booleans()):
            argv.append("--enumerate")
        for option in ("--limit", "--budget"):
            if draw(st.booleans()):
                argv += [option, str(draw(st.integers(-1, 40)))]
    else:
        cycles = _FUZZ_CYCLES.get(text, [])
        argv += ["--x", draw(_vertex_list(cycles)), "--y", draw(_vertex_list(cycles))]
    return argv, text


@settings(max_examples=200, deadline=None)
@given(_cli_argv())
def test_cli_fuzz_ends_in_an_exit_code_never_a_traceback(case):
    # exit 0, 2 or 3; or 1 with one JSON error: an invariant failure on
    # stderr, or auxgraph's pair that shares no vertex or puts two paths on one
    # segment pair, on stdout
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = [path if arg == "{file}" else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 3:
        assert out == "" and err.splitlines()[-1].startswith("error: "), (argv, text, err)
    elif code == 1:
        if err:
            (line,) = err.splitlines()
            assert json.loads(line)["error"] == "internal invariant failed", (argv, text)
        else:
            assert argv[0] == "auxgraph", (argv, text, out)
            assert json.loads(out)["error"] in ("empty intersection", "same segment pair")
    else:
        assert code in (0, 2), (argv, text, code)


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["cycles", "--in", str(tmp_path / "missing.g6")]) == 3
    capsys.readouterr()
    assert main(["gen", "circulant", "--n", "7", "--conn", "1"]) == 3


def test_cli_empty_graph_file_is_a_usage_error(tmp_path, capsys):
    for text in ("", "  \n\n"):
        path = tmp_path / "empty.g6"
        path.write_text(text)
        assert main(["cycles", "--in", str(path)]) == 3
        assert "empty graph file" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["cycles", "--budget", "0"],
    ["cycles", "--budget", "-4"],
    ["cycles", "--enumerate", "--limit", "0"],
    ["cycles", "--enumerate", "--limit", "-3"],
    ["intersect", "--budget", "0"],
    ["intersect", "--limit", "0"],
    ["cycles", "--limit", "0"],
])
def test_cli_rejects_budget_or_limit_below_one(tmp_path, capsys, args):
    # --limit and --budget are declared once, in a parent parser, and the
    # error names the option
    path = tmp_path / "k4.g6"
    path.write_text(graph_to_graph6(complete_graph(4)) + "\n")
    assert main([*args, "--in", str(path)]) == 3
    assert f"argument {args[-2]}: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["separator", "auxgraph", "certify"])
def test_cli_pair_commands_name_a_missing_option(tmp_path, capsys, command):
    # --in, --x and --y are declared once, in parent parsers, and each pair
    # command still requires them
    path = tmp_path / "pet.g6"
    path.write_text(graph_to_graph6(petersen_graph()) + "\n")
    cycle = "0,1,2,3,4"
    for args, missing in ((["--in", str(path), "--x", cycle], "--y"),
                          (["--x", cycle, "--y", cycle], "--in")):
        assert main([command, *args]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f"error: the following arguments are required: {missing}\n")


def test_cli_verify_rejects_budget_below_one(capsys):
    assert main(["verify", "--suite", "babai", "--corpus", "smoke", "--budget", "0"]) == 3
    assert "must be at least 1" in capsys.readouterr().err


def test_cli_intersect_truncated_set_is_inconclusive(tmp_path, capsys):
    # C8(1,2) has 29 longest cycles; one kept cycle is not "single longest cycle"
    path = tmp_path / "c8.g6"
    path.write_text(graph_to_graph6(circulant(8, {1, 2, 6, 7})) + "\n")
    assert main(["intersect", "--in", str(path), "--limit", "1"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["truncated"] is True and payload["count"] == 1
    assert payload["m_min"] is None and "note" not in payload
    assert main(["intersect", "--in", str(path), "--limit", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["truncated"] is True
    assert main(["intersect", "--in", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 29 and payload["truncated"] is False


def test_cli_cycles_budget_inconclusive(tmp_path, capsys):
    from cyclemeet.graphs import graph_to_graph6

    # the rotation walk closes a 9-cycle; ruling out a 10-cycle takes 70 nodes
    path = tmp_path / "petersen.g6"
    path.write_text(graph_to_graph6(petersen_graph()) + "\n")
    assert main(["cycles", "--in", str(path), "--budget", "3"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert "error" in payload and payload["best_length_lower_bound"] == 9


def test_cli_auxgraph_disjoint_cycles_fails(tmp_path, capsys):
    from cyclemeet.graphs import Graph, graph_to_graph6

    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    path = tmp_path / "two.g6"
    path.write_text(graph_to_graph6(g) + "\n")
    assert main(["auxgraph", "--in", str(path), "--x", "0,1,2", "--y", "3,4,5"]) == 1
    assert "empty intersection" in capsys.readouterr().out


def test_cli_auxgraph_same_segment_pair_fails(tmp_path, capsys):
    g, x, y, _, _ = prop22_host()
    path = tmp_path / "prop22.g6"
    path.write_text(graph_to_graph6(g) + "\n")
    pair = ["--in", str(path), "--x", "0,2,3,4,1,5,6,7", "--y", "0,8,9,10,1,11,12,13"]
    assert main(["auxgraph", *pair]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"error": "same segment pair", "pair": [1, 1],
                       "path1": [2, 8], "path2": [3, 10]}
    assert main(["certify", *pair]) == 0
    assert json.loads(capsys.readouterr().out)["improved"] is True


@pytest.mark.parametrize("generator, group", [
    (["circulant", "--n", "0", "--conn", "1"], None),
    (["cayley"], "cyclic 0: 1"),
    (["cayley"], "perm 3: (0 1 5)"),
    (["cayley"], "perm 0: (0)"),
    (["cayley"], "perm 3: (0 1 1)"),
    (["cayley"], "perm 3: (0 1) 2"),
])
def test_cli_gen_rejects_bad_generator_input(tmp_path, capsys, generator, group):
    if group is not None:
        grp = tmp_path / "grp.txt"
        grp.write_text(group + "\n")
        generator = [*generator, "--file", str(grp)]
    assert main(["gen", *generator]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("args, names", [
    (["verify", "--suite", "babai", "--corpus", "circulants:count=50,max_n=5"], "count=50"),
    (["verify", "--suite", "all", "--corpus", "random:count=2,max_n=3"], "max_n"),
    (["verify", "--suite", "babai", "--corpus", "circulants:count=2,max_n=2"], "max_n"),
    (["verify", "--suite", "babai", "--corpus", "vt:count=50,max_n=8"], "count=50"),
    (["gen", "random", "--n", "5", "--p", "1.5"], "p must lie in [0, 1]"),
    *[(["verify", "--suite", "all", "--corpus", f"pairwise{n}"], f"max_n must be at least 6, got {n}")
      for n in range(6)],
    (["verify", "--suite", "all", "--corpus", "exhaustive"],
     "corpus 'exhaustive' needs a maximum vertex count, as in exhaustive7"),
    (["verify", "--suite", "all", "--corpus", "pairwise"],
     "corpus 'pairwise' needs a maximum vertex count, as in pairwise7"),
    (["verify", "--suite", "babai", "--corpus", "vt:count=abc"],
     "corpus parameter count must be an integer, got 'abc'"),
    (["verify", "--suite", "babai", "--corpus", "circulants:max_n=1.5"],
     "corpus parameter max_n must be an integer, got '1.5'"),
    # parameters are checked in spec order, so the first malformed one is named
    (["verify", "--suite", "babai", "--corpus", "vt:max_n=xyz,count=abc"],
     "corpus parameter max_n must be an integer, got 'xyz'"),
])
def test_cli_bad_corpus_or_generator_input_is_a_usage_error(capsys, args, names):
    assert main(args) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and names in out.err


@pytest.mark.parametrize("generator", [
    ["random", "--n", "100000", "--p", "0.5"],
    ["circulant", "--n", "1000000", "--conn", "1,999999"],
])
def test_cli_gen_past_the_vertex_cap_exits_at_once(capsys, generator):
    # the cap is met before the first edge is drawn; drawing them all takes
    # seconds for the circulant and many minutes for the random graph
    start = time.perf_counter()
    assert main(["gen", *generator]) == 3
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: graph has {generator[2]} vertices, above the cap of 128\n"


def test_cli_small_pairwise_corpus_without_random_graphs_runs(capsys):
    # below 6 vertices no random graph can be drawn, but the fixed zoo still can
    assert main(["verify", "--suite", "all", "--corpus", "pairwise5:random_count=0"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total"] == 5


def test_cli_invariant_failure_exits_one_with_json_error(tmp_path, capsys, monkeypatch):
    from cyclemeet import flow

    menger = flow._menger

    def cut_one_too_big(g, a, b, allowed, cutoff):
        # the lowest vertex outside the cut is marked entered but not left
        value, succ, starts, (entered, left) = menger(g, a, b, allowed, cutoff)
        outside = g.full_mask & ~(entered & ~left)
        low = outside & -outside
        return value, succ, starts, (entered | low, left & ~low)

    monkeypatch.setattr(flow, "_menger", cut_one_too_big)
    g = petersen_graph()
    path = tmp_path / "pet.g6"
    path.write_text(graph_to_graph6(g) + "\n")
    cs = enumerate_longest_cycles(g)
    x = ",".join(map(str, cs.cycles[0].vertices))
    y = ",".join(map(str, cs.cycles[1].vertices))
    assert main(["separator", "--in", str(path), "--x", x, "--y", y]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "internal invariant failed"
    assert "Menger equality violated" in payload["detail"]


def test_cli_budget_error_leaving_a_command_exits_two(tmp_path, capsys, monkeypatch):
    from cyclemeet import cli
    from cyclemeet.cycles import BudgetExceededError

    def exhausted(g, x, y):
        raise BudgetExceededError("search budget of 1 node expansions exceeded")

    monkeypatch.setattr(cli, "improve_by_exchange", exhausted)
    path = tmp_path / "c5.g6"
    path.write_text(graph_to_graph6(cycle_graph(5)) + "\n")
    assert main(["certify", "--in", str(path), "--x", "0,1,2,3,4", "--y", "0,1,2,3,4"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "budget" in json.loads(line)["error"]


@pytest.mark.parametrize("suite", ["babai", "all"])
def test_cli_verify_searches_the_orbit_of_circulants_above_64_vertices(tmp_path, suite):
    # 16 of these circulants have more than 64 vertices; their orbits are
    # found under the node budget like every other. Under babai each gets
    # c(G) = n from a built Hamiltonian cycle, so the n = 68 and n = 46
    # circulants, whose length searches ran out of this budget, pass
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", suite, "--corpus", "circulants:count=40,max_n=100",
                 "--seed", "3", "--budget", "2000", "--out", str(out)])
    assert code == (0 if suite == "babai" else 2)
    payload = json.loads(out.read_text())
    assert payload["summary"]["total"] == 40 and payload["summary"]["failed"] == 0
    assert len([r for r in payload["instances"] if r["n"] > 64]) == 16
    for r in payload["instances"]:
        for o in r["outcomes"]:
            assert "cap" not in o.get("detail", "")
        g = graph_from_graph6(r["instance_id"].split(":", 1)[1])
        assert r["connectivity"] == vertex_connectivity(g)
    if suite == "babai":
        babai = [(r["n"], r["outcomes"][0]["status"], r["cycle_length"])
                 for r in payload["instances"]]
        assert all(status == "pass" and c == n for n, status, c in babai)
        assert len([key for key in babai if key[0] > 64]) == 16


def test_cli_verify_babai_builds_c_of_every_circulant_to_100_vertices(tmp_path):
    # at the default budget the n = 68 circulant's length search took about
    # 17 minutes; its c(G) = n is now built from its translation
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["verify", "--suite", "babai", "--corpus", "circulants:count=40,max_n=100",
                 "--seed", "3", "--out", str(out)])
    assert code == 0 and time.perf_counter() - start < 5
    payload = json.loads(out.read_text())
    assert payload["summary"] == {"failed": 0, "inconclusive": 0, "total": 40}
    for r in payload["instances"]:
        assert [(o["name"], o["status"]) for o in r["outcomes"]] == [("babai", "pass")]
        assert r["cycle_length"] == r["n"]


def test_cli_verify_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "babai", "--corpus", "smoke", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "babai"
    # inconclusive from an impossible budget
    code = main(["verify", "--suite", "smith", "--corpus", "smoke", "--seed", "1",
                 "--budget", "2", "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("args, golden, code", [
    (["--corpus", "smoke", "--seed", "42"], "verify_all_smoke_seed42.json", 0),
    (["--corpus", "smoke", "--seed", "1", "--budget", "2"],
     "verify_all_smoke_seed1_budget2.json", 2),
])
def test_cli_verify_matches_golden_report(tmp_path, args, golden, code):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", *args, "--out", str(out)]) == code
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("args, count, digest", [
    (["--seed", "42"], 72,
     "bbb77de7f5e571af66487b99f698da041a6f35a693116eb2b42631ca45316651"),
    (["--corpus", "default", "--seed", "1", "--budget", "400"], 70,
     "af5c4507334ddb2e38db4ea5ee8767cf8d3a17d17b5e5e996c6c1c64d21f350b"),
], ids=["seed42", "seed1-budget400"])  # ids without the digest, which moves with the report
def test_cli_verify_default_corpus_report_digest(tmp_path, args, count, digest):
    # the goldens use the smoke corpus, which never runs the default filter
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", *args, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["instances"]) == count
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_verify_thm14_suite_report_digest(tmp_path):
    # the goldens and the digests above cover only --suite all
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "thm14", "--seed", "42", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["instances"]) == 72
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bc8910b1c9d4b879c855fce28d51e4ca2ddcd60bb7633850475c6641192c1d1e"
    )


def test_cli_verify_babai_suite_report_digest(tmp_path):
    # the babai suite reads c(G) from the length search and enumerates nothing,
    # so the fields read off the cycle set are null
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "babai", "--corpus", "circulants:count=50,max_n=24",
                 "--seed", "5", "--out", str(out)]) == 0
    instances = json.loads(out.read_text())["instances"]
    assert len(instances) == 50
    assert all(r["cycle_length"] is not None and r["truncated"] is None for r in instances)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b3748d3e8a729915f7e1b73d60ad227e2f2f700757d24de9b89456c670c428e9"
    )


@pytest.mark.parametrize("args, count, digest", [
    (["--suite", "all", "--corpus", "exhaustive7"], 996,
     "fffa65c607951b2dbf8289360702ba1bd34afa9f198895b08752f1cd0dadbd39"),
    (["--suite", "smith", "--seed", "42"], 72,
     "e9051c5a86a57f48246e28fd7ba2556b5a4337d10abc8b6e09ad441a026f7823"),
    (["--suite", "devos", "--seed", "42"], 72,
     "42661ae80ca3b6959add3c64698453a797b59d379bb6e1405527ac0bf63f8a0a"),
], ids=["all-exhaustive7", "smith-seed42", "devos-seed42"])
def test_cli_verify_report_bytes_are_pinned(tmp_path, args, count, digest):
    # the benchmark's exhaustive7 pass, and the two suites no golden covers
    out = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["instances"]) == count
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_pair_commands_stdout_is_pinned(tmp_path, capsys):
    # every other command that writes JSON, on payloads with floats, nulls,
    # nested lists and string-keyed dicts; certify once per exchange origin
    pet = tmp_path / "pet.g6"
    pet.write_text(graph_to_graph6(petersen_graph()) + "\n")
    cs = enumerate_longest_cycles(petersen_graph())
    x = ",".join(map(str, cs.cycles[0].vertices))
    y = ",".join(map(str, cs.cycles[1].vertices))
    host = tmp_path / "prop22.g6"
    host.write_text(graph_to_graph6(prop22_host()[0]) + "\n")
    host_pair = ["--in", str(host), "--x", "0,2,3,4,1,5,6,7", "--y", "0,8,9,10,1,11,12,13"]

    def exchange_pair(name, g, x, y, _family):
        path = tmp_path / f"{name}.g6"
        path.write_text(graph_to_graph6(g) + "\n")
        return ["--in", str(path), "--x", ",".join(map(str, x.vertices)),
                "--y", ",".join(map(str, y.vertices))]

    runs = [
        (["cycles", "--in", str(pet), "--enumerate"], 0,
         "a32bc523f6aa4cf21426f51c7d1d361599faa661c41d03cf5df4dd6190ac6e0e"),
        (["intersect", "--in", str(pet)], 0,
         "6a3796e91171a5adca0b7164f100ea34095e27192420685af27e95cbb77e7a17"),
        (["separator", "--in", str(pet), "--x", x, "--y", y], 0,
         "14f2c446b65f3ccd0c567cda11475b0e7a318e52ac9f4746a067448e47f044b3"),
        (["auxgraph", "--in", str(pet), "--x", x, "--y", y], 0,
         "f7ad8afa4f477f0304047c74a2eb188a1360b0e51fdae1cb6d56bc6be714c04c"),
        (["certify", "--in", str(pet), "--x", x, "--y", y], 0,
         "bcb6b9f41a73756a25e9a36155a552d4972864cb929ab21a8cbd862b00f0f89d"),
        (["auxgraph", *host_pair], 1,
         "61c514e77d31305e392f382bcb80d3767e32b83ff56a8d71a0689748a1074256"),
        (["certify", *host_pair], 0,
         "0e9e649f67ceed278892bb70c5ae49ed503ade4ab1522516a07cd645a1cd7c27"),
        (["certify", *exchange_pair("type00", *type00_host())], 0,
         "309f95f5f946656976db49fc6ec1a9e914cf2d1e10229a958a68ce3915354a1c"),
        (["certify", *exchange_pair("lemma33", *lemma33_host(0, 1))], 0,
         "20b970c3a0d46798f84d4fa0548aef031c630ef93eabd69dda9faf9153c425bf"),
    ]
    digests = []
    for args, code, _ in runs:
        assert main(args) == code
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == [digest for *_, digest in runs]


def test_cli_verify_babai_suite_needs_no_enumeration_budget(tmp_path):
    # circulants[1] takes 21,071 enumeration nodes but 43 length-search nodes
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "babai", "--corpus", "circulants:count=5,max_n=12",
                 "--seed", "1", "--budget", "200", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"] == {"total": 5, "failed": 0, "inconclusive": 0}


def test_cli_verify_determinism_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--suite", "all", "--corpus", "smoke", "--seed", "42",
                 "--out", str(a)]) == 0
    assert main(["verify", "--suite", "all", "--corpus", "smoke", "--seed", "42",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_entrypoint_subprocess(tmp_path):
    # the child imports the package under test, installed or not
    src = str(Path(cyclemeet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "cyclemeet.cli", "gen", "random", "--n", "8", "--p",
         "0.5", "--seed", "3"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip()


def test_cli_cayley_from_file(tmp_path, capsys):
    grp = tmp_path / "grp.txt"
    grp.write_text("cyclic 6: 1,5\n")
    assert main(["gen", "cayley", "--file", str(grp)]) == 0
    g6 = capsys.readouterr().out.strip()
    from cyclemeet.graphs import graph_from_graph6

    assert graph_from_graph6(g6) == cycle_graph(6)


def test_cli_cyclic_cayley_is_the_circulant_for_every_connection_set_to_16(tmp_path, capsys):
    grp = tmp_path / "grp.txt"
    for n, steps in symmetric_connection_sets(16):
        conn = ",".join(map(str, steps))
        grp.write_text(f"cyclic {n}: {conn}\n")
        assert main(["gen", "cayley", "--file", str(grp)]) == 0
        assert main(["gen", "circulant", "--n", str(n), "--conn", conn]) == 0
        cayley_g6, circulant_g6 = capsys.readouterr().out.split()
        assert cayley_g6 == circulant_g6, (n, steps)


@pytest.mark.parametrize("group, message", [
    ("cyclic 6:", "empty connection set"),
    ("cyclic 6: 0,1,5", "identity in connection set"),
    ("cyclic 7: 1", "connection set not inverse-closed"),
    ("perm 3: (0 1 2)", "connection set not inverse-closed"),
    ("perm 3:", "permutation group needs generators"),
    ("cyclic 0: 1", "group degree must be at least 1, got 0"),
    ("cyclic -3: 1", "group degree must be at least 1, got -3"),
    ("perm 0: (0)", "group degree must be at least 1, got 0"),
    ("perm 3: (0 1 5)", "point 5 outside 0..2 in cycle notation"),
    ("perm 3: (0 1 1)", "point 1 repeated in one permutation"),
    ("perm 3: (0 (1 2))", "malformed cycle notation: cycles of digits in parentheses,"
                          " separated by spaces or commas"),
    ("cyclic 129: 1,128", "group order exceeds cap of 128"),
    ("perm 6: (0 1); (1 2); (2 3); (3 4); (4 5)", "group order exceeds cap of 128"),
    ("dihedral 4: 1", "unknown group kind 'dihedral'"),
    ("cyclic: 1", "bad group header: 'cyclic'"),
])
def test_cli_gen_cayley_names_what_is_wrong_with_the_group(tmp_path, capsys, group, message):
    grp = tmp_path / "grp.txt"
    grp.write_text(group + "\n")
    assert main(["gen", "cayley", "--file", str(grp)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")
