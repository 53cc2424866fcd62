"""Batch verification of the longest-cycle intersection bounds over corpora.

Each instance gets a deterministic report: exact cycle statistics, separator
sizes against their certified ceilings, auxiliary-graph cleanliness, and the
counting inequalities. Theorem-backed checks must pass on every completed
instance; a failure is a repo bug by definition and aborts the run with the
witness serialized. Budget exhaustion is inconclusive, never a failure.

Reports contain no wall-clock data, so identical corpus + seed reproduce
byte-identical output. ``json_text`` writes them, and every other JSON
document of the CLI, exactly as ``json.dumps(..., indent=2, sort_keys=True)``
would, without building a dict per report; a float's text is json's own.
A report reads c(G) and κ once, after the checks, the same way under every
suite, so that both use the orbit of 0 where a check searched it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from json.encoder import encode_basestring_ascii
from typing import Optional

from .auxgraph import (
    SameSegmentPairError,
    l_set,
    pair_aux,
    pairwise_noncrossing,
    supersaturation_report,
    type_census,
)
from .corpus import (
    load_connected_corpus,
    pairwise_corpus,
    random_circulants,
    random_connected_graphs,
    vertex_transitive_corpus,
)
from .cycles import (
    BudgetExceededError,
    CycleEmbedding,
    CycleSet,
    DEFAULT_BUDGET,
    enumerate_longest_cycles,
    is_t_transversal,
    longest_cycle_length,
    min_pairwise_intersection,
)
from .exchange import improve_by_four_cycles
from .flow import SeparatorReport, xy_separator
from .graphs import (
    Graph,
    graph_to_graph6,
    is_connected,
    is_forest,
    is_regular,
    mask_of,
    vertex_connectivity,
)
from .transitive import circulant_hamiltonian_cycle, vertex_orbit_of_zero

ENUMERATION_LIMIT = 5000  # longest cycles kept per graph; more leaves the set truncated
PAIR_LIMIT = 25  # cycle pairs checked per instance by each pairwise check


@dataclass(frozen=True)
class Outcome:
    """One named check: pass/fail with the compared quantities."""

    name: str
    status: str  # pass | fail | inconclusive | observed | skipped
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    detail: str = ""
    witness: Optional[dict] = None


def _kept(compute) -> property:
    """A property that keeps its fact under ``_<name>``, computed at most once, or its budget error.

    A kept ``BudgetExceededError`` is raised again, the same object, on every
    read, so the search behind the fact never runs twice.
    """
    key = "_" + compute.__name__

    def read(facts):
        kept = vars(facts)
        if key not in kept:
            try:
                kept[key] = compute(facts)
            except BudgetExceededError as err:
                kept[key] = err
        if isinstance(kept[key], BudgetExceededError):
            raise kept[key]
        return kept[key]

    return property(read, doc=compute.__doc__)


class InstanceFacts:
    """The facts the checks read about one graph, each computed at most once.

    ``cycles`` is the graph's one longest-cycle enumeration and ``length``
    its c(G), both None for a forest. ``length`` is read from the enumeration
    when that has already run, and from a built Hamiltonian cycle when the
    orbit of 0 is already searched and has an n-cycle map (a circulant);
    otherwise it comes from the longest-cycle search kept to one cycle,
    which on every corpus measured expands no more nodes than the enumeration.
    ``_kept`` makes a searched fact a property that keeps its value or its
    budget error, so a search that runs out of budget never runs twice;
    that holds for the automorphism searches behind ``orbit`` too. ``orbit``
    is the orbit of vertex 0 with one automorphism per orbit vertex; it is
    searched only for a connected regular graph (``degree``), and only for
    the checks that read ``vertex_transitive``. ``connectivity`` reads it
    when one of them already has, so the report reads κ after the checks:
    then ``vertex_connectivity`` drops the C(d, 2) neighbour-pair flows when
    the orbit is larger than the degree d, and runs one flow per pair
    {w, maps[w]⁻¹(0)} of non-neighbours of 0.

    ``corpus_instances`` makes one per instance. A fact that set-up reads
    (the ``default`` filter reads ``complete``) is reused by the analysis,
    which works on a shallow copy, so what the analysis adds dies with it.
    """

    def __init__(self, g: Graph, budget: int):
        self.g = g
        self.budget = budget

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.g)

    @cached_property
    def degree(self) -> Optional[int]:
        """The common degree when g is regular, else None."""
        return is_regular(self.g)

    @_kept
    def orbit(self) -> Optional[dict[int, tuple[int, ...]]]:
        """The orbit of vertex 0, each orbit vertex u with an automorphism sending 0 to u.

        Searched only for a connected regular graph, the only kind that can be
        vertex-transitive; None for any other. A search that runs out of
        budget leaves the fact inconclusive.
        """
        if not self.connected or self.degree is None:
            return None
        return vertex_orbit_of_zero(self.g, self.budget)

    @property
    def vertex_transitive(self) -> bool:
        """Whether g is connected and vertex-transitive: its orbit of 0 is every vertex."""
        orbit = self.orbit
        return orbit is not None and len(orbit) == self.g.n

    @cached_property
    def connectivity(self) -> int:
        """κ(G), by ``vertex_connectivity``'s orbit rule when a check already searched the orbit.

        It never starts the orbit search itself, and an orbit search that ran
        out of budget leaves the plain Esfahanian–Hakimi flows.
        """
        orbit = vars(self).get("_orbit")
        return vertex_connectivity(self.g, orbit if isinstance(orbit, dict) else None)

    @_kept
    def cycles(self) -> Optional[CycleSet]:
        """Longest cycles, at most ENUMERATION_LIMIT of them; c(G) is exact either way."""
        if is_forest(self.g):
            return None
        return enumerate_longest_cycles(self.g, limit=ENUMERATION_LIMIT, budget=self.budget)

    @_kept
    def length(self) -> Optional[int]:
        """c(G), exact; the cycles are enumerated only if something else read them.

        When a check already searched the orbit of 0 and one of its maps is an
        n-cycle, g is a circulant and c(G) = n by a built Hamiltonian cycle
        (``circulant_hamiltonian_cycle``). It never starts the orbit search.
        """
        if "_cycles" in vars(self) or is_forest(self.g):
            cs = self.cycles  # the enumeration that ran, or None for a forest
            return None if cs is None else cs.length
        orbit = vars(self).get("_orbit")
        if isinstance(orbit, dict) and circulant_hamiltonian_cycle(self.g, orbit) is not None:
            return self.g.n
        return longest_cycle_length(self.g, self.budget)

    @cached_property
    def complete(self) -> Optional[CycleSet]:
        """The cycle set when it lists every longest cycle, else None.

        None also for a forest and for an enumeration that ran out of budget.
        """
        try:
            cs = self.cycles
        except BudgetExceededError:
            return None
        return None if cs is None or cs.truncated else cs

    @cached_property
    def m_min(self) -> tuple:
        """(m, pair): the fewest vertices two longest cycles share, and a pair sharing m.

        Read from a complete set of two or more cycles; (None, None) otherwise.
        """
        cs = self.complete
        return (None, None) if cs is None or len(cs) < 2 else min_pairwise_intersection(cs)


def verify_babai(facts: InstanceFacts) -> Outcome:
    """c(G) >= sqrt(3n) for connected vertex-transitive graphs on n >= 3 vertices."""
    g = facts.g
    if g.n < 3 or not facts.connected:
        return Outcome("babai", "skipped", detail="needs a connected graph on >= 3 vertices")
    try:
        if not facts.vertex_transitive:
            return Outcome("babai", "skipped", detail="not vertex-transitive")
        c = facts.length
    except BudgetExceededError as err:
        return Outcome("babai", "inconclusive", detail=str(err))
    return _verdict("babai", c * c >= 3 * g.n, g, c, (3 * g.n) ** 0.5, c=c)


def verify_smith(facts: InstanceFacts) -> Outcome:
    """Two longest cycles meet in >= k vertices; asserted only for k <= 8.

    The cycle set is read once, after the skip tests, so a graph the check
    does not apply to (disconnected, or κ < 2) is skipped whether or not its
    set is complete. On a 2-connected graph an enumeration that ran out of
    budget or was truncated leaves the check inconclusive.
    """
    g = facts.g
    if g.n < 3 or not facts.connected:
        return Outcome("smith", "skipped", detail="needs a connected graph")
    k = facts.connectivity
    if k < 2:
        return Outcome("smith", "skipped", detail="connectivity below 2")
    try:
        cs = facts.cycles
    except BudgetExceededError as err:
        return Outcome("smith", "inconclusive", detail=str(err))
    if cs.truncated:
        return Outcome("smith", "inconclusive", detail="enumeration truncated")
    if len(cs) < 2:
        return Outcome("smith", "pass", lhs=float(cs.length), rhs=k,
                       detail="single longest cycle, nothing to intersect")
    m_min, pair = facts.m_min
    if k > 8:
        return Outcome("smith", "observed", lhs=m_min, rhs=k,
                       detail="conjecture status for k > 8, reported without assertion")
    return _verdict("smith", m_min >= k, g, m_min, k,
                    x=list(pair[0].vertices), y=list(pair[1].vertices))


def verify_thm14(g: Graph, x: CycleEmbedding, y: CycleEmbedding,
                 rep: SeparatorReport) -> Outcome:
    """Separator size against sqrt(10)*m^1.5 + 1.5*m for one longest-cycle pair.

    ``rep`` is the pair's ``xy_separator`` report, which the caller builds once
    and shares with the structural checks. For m = 0 the ceiling is one cut
    vertex (``separator_bound_holds``), while ``rhs`` keeps the formula's value.
    """
    detail = ("disjoint cycles lie in different blocks; ceiling is one cut vertex"
              if rep.m == 0 else "")
    return _verdict("thm14_bound", rep.bound_satisfied, g, len(rep.cut), rep.bound, detail,
                    x=list(x.vertices), y=list(y.vertices), cut=sorted(rep.cut))


def verify_devos(facts: InstanceFacts, a: frozenset[int], t: int) -> Outcome:
    """c(G) >= t*n/|A| for a verified t-transversal A of a vertex-transitive graph."""
    g = facts.g
    try:
        if not facts.vertex_transitive:
            return Outcome("devos", "skipped", detail="needs a connected vertex-transitive graph")
        cs = facts.cycles
    except BudgetExceededError as err:
        return Outcome("devos", "inconclusive", detail=str(err))
    if cs is None:  # K1 and K2: connected and vertex-transitive, with no cycle
        return Outcome("devos", "skipped", detail="needs a graph with a cycle")
    if not is_t_transversal(g, cs, a, t):
        return Outcome("devos", "skipped", detail="given set is not a t-transversal")
    c = cs.length
    return _verdict("devos", c * len(a) >= t * g.n, g, c, t * g.n / len(a), a=sorted(a), t=t)


def _verdict(name: str, ok: bool, g: Graph, lhs, rhs, detail: str = "", **witness) -> Outcome:
    """A theorem check's pass, or its fail with ``witness`` and the graph6 of g as the witness."""
    return Outcome(name, "pass" if ok else "fail", lhs=lhs, rhs=rhs, detail=detail,
                   witness=None if ok else {"graph6": graph_to_graph6(g), **witness})


@dataclass(frozen=True)
class VerificationReport:
    instance_id: str
    n: int
    degree: Optional[int]
    connectivity: Optional[int]
    cycle_length: Optional[int]
    cycle_count: Optional[int]
    truncated: Optional[bool]
    m_min: Optional[int]
    separator_size: Optional[int] = None
    separator_bound: Optional[float] = None
    outcomes: tuple[Outcome, ...] = ()
    observations: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def worst_status(self) -> str:
        order = {"fail": 0, "inconclusive": 1, "observed": 2, "skipped": 2, "pass": 3}
        statuses = [o.status for o in self.outcomes] or ["pass"]
        return min(statuses, key=lambda s: order[s])


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus description: kind plus parameters plus seed."""

    kind: str
    params: tuple[tuple[str, str], ...] = ()
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    @staticmethod
    def parse(text: str, seed: int = 0) -> "CorpusSpec":
        kind, _, tail = text.partition(":")
        params = []
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            if not value:
                raise ValueError(f"bad corpus parameter {chunk!r}")
            params.append((key.strip(), value.strip()))
        return CorpusSpec(kind=kind.strip() or "default", params=tuple(params), seed=seed)


def _random_corpus(seed: int, count: int, max_n: int) -> list[Graph]:
    if max_n < 5:  # the smallest graph drawn has 5 vertices
        raise ValueError(f"max_n must be at least 5, got {max_n}")
    return random_connected_graphs(count=count, seed=seed or 3, n_choices=range(5, max_n + 1),
                                   p_choices=(0.2, 0.3, 0.5))


# one row per corpus kind: the parameters it takes, with their defaults; whether
# its name carries N, as in exhaustive7, passed on as max_n; and its builder,
# called with the seed and the parameters. The builders look their callees up
# when called, so a tracer that rebinds a corpus function sees every call
_CORPORA = {
    "default": ({}, False, lambda seed: (
        pairwise_corpus(max_n=12, seed=seed or 11, random_count=10)
        + vertex_transitive_corpus(count=40, seed=seed or 7, max_n=16))),
    "smoke": ({}, False,
              lambda seed: pairwise_corpus(max_n=10, seed=seed or 11, random_count=4)[:12]),
    "exhaustive": ({}, True, lambda seed, max_n: load_connected_corpus(max_n=max_n)),
    "pairwise": ({"random_count": 30}, True,
                 lambda seed, **params: pairwise_corpus(seed=seed or 11, **params)),
    "vt": ({"count": 200, "max_n": 32}, False,
           lambda seed, **params: vertex_transitive_corpus(seed=seed or 7, **params)),
    "circulants": ({"count": 50, "max_n": 24}, False,
                   lambda seed, **params: random_circulants(seed=seed or 7, **params)),
    "random": ({"count": 50, "max_n": 12}, False, _random_corpus),
}


def corpus_instances(spec: CorpusSpec) -> list[tuple[str, InstanceFacts]]:
    """Materialize the corpus as (id, facts) pairs; ids embed the graph6 form.

    Each parameter is checked in spec order: a key the kind does not take, a
    repeated key, a value that is not an integer, a count below 0. Then
    comes the kind's N, then the build. Each instance gets one
    ``InstanceFacts`` under ``spec.budget``. The ``default`` corpus keeps
    only graphs whose longest-cycle set is complete, so its facts arrive
    with that set already enumerated.
    """
    kind = spec.kind
    stem = kind.rstrip("0123456789")
    if stem not in _CORPORA:
        raise ValueError(f"unknown corpus kind {kind!r}")
    defaults, sized, build = _CORPORA[stem]
    given: dict[str, int] = {}
    for key, value in spec.params:
        if key not in defaults:
            takes = ", ".join(defaults) or "none"
            raise ValueError(f"corpus {kind!r} has no parameter {key!r} (it takes: {takes})")
        if key in given:
            raise ValueError(f"corpus parameter {key!r} is given twice")
        try:
            given[key] = int(value)
        except ValueError:
            raise ValueError(f"corpus parameter {key} must be an integer, got {value!r}") from None
        if key != "max_n" and given[key] < 0:
            raise ValueError(f"corpus parameter {key} must be at least 0, got {value}")
    if sized and stem == kind:
        raise ValueError(f"corpus {kind!r} needs a maximum vertex count, as in {kind}7")
    if sized:
        given["max_n"] = int(kind[len(stem):])
    elif stem != kind:
        raise ValueError(f"unknown corpus kind {kind!r}")
    facts = (InstanceFacts(g, spec.budget) for g in build(spec.seed, **{**defaults, **given}))
    if kind == "default":
        # deterministic given the spec, so the filtered corpus stays reproducible;
        # cycle-saturated dense graphs would leave every pair check inconclusive.
        # A dropped graph's facts are freed at once
        facts = (f for f in facts if f.complete is not None)
    return [(f"{kind}[{idx}]:{graph_to_graph6(f.g)}", f) for idx, f in enumerate(facts)]


def analyze_instance(instance_id: str, facts: InstanceFacts, spec: CorpusSpec,
                     suite: str) -> VerificationReport:
    """Run the requested checks on one instance's graph, ``facts.g``.

    Works on a shallow copy of ``facts``: what set-up computed is reused, and
    what the analysis adds dies with the call. ``spec`` is unread (the budget
    comes with the facts); it stays so that four-argument callers still work.

    Under every suite ``cycle_length`` is ``facts.length``, read once after
    the checks, as κ is: the enumeration's c(G) where one ran, and n from a
    built cycle for a circulant whose orbit a check found, with no length
    search. The ``babai`` suite reads only c(G), so it enumerates no cycles
    and leaves ``cycle_count``, ``truncated``, ``m_min`` and the separator
    fields null. Every other suite reads ``facts.cycles`` before the checks,
    and an enumeration that runs out of budget is reported as an
    inconclusive ``enumeration`` outcome. Under ``babai`` the check's own
    outcome carries the length search's budget error wherever the check
    applies, so no such outcome is added.
    """
    facts = copy.copy(facts)
    g = facts.g
    outcomes: list[Outcome] = []
    observations: dict = {}
    stats: dict = {}
    degree = facts.degree
    cs = complete = None
    if suite != "babai":  # babai reads c(G) alone, so that suite enumerates nothing
        try:
            cs = facts.cycles  # None for a forest: it carries no cycle checks
        except BudgetExceededError as err:
            outcomes.append(Outcome("enumeration", "inconclusive", detail=str(err)))
        complete = facts.complete
    m_min, m_pair = facts.m_min if complete is not None else (None, None)
    separator_size = separator_bound = m_rep = None
    if m_pair is not None:
        m_rep = xy_separator(g, *m_pair)
        separator_size, separator_bound = len(m_rep.cut), m_rep.bound

    def want(name: str) -> bool:
        return suite in ("all", name)

    if want("babai"):
        outcomes.append(verify_babai(facts))
    if want("smith"):
        outcomes.append(verify_smith(facts))
    if want("devos") and complete is not None:
        a = frozenset(complete.sequences[0])
        t = m_min if m_min is not None else complete.length
        outcomes.append(verify_devos(facts, a, t))
    if want("thm14") and complete is not None:
        # the first PAIR_LIMIT pairs with their separators, read by both pairwise
        # scans; the first PAIR_LIMIT + 1 cycles give them all, and only those
        # are wrapped. A separator depends only on the ordered pair (V(x), V(y)),
        # so each such pair of vertex masks gets one, the m_min pair's seeding the map
        separators = {} if m_pair is None else {
            (mask_of(m_pair[0].vertices), mask_of(m_pair[1].vertices)): m_rep}
        first = [CycleEmbedding(c) for c in complete.sequences[:PAIR_LIMIT + 1]]
        pairs = []
        for (x, xm), (y, ym) in islice(combinations(zip(first, complete.masks), 2), PAIR_LIMIT):
            rep = separators.get((xm, ym))
            if rep is None:
                rep = separators[xm, ym] = xy_separator(g, x, y)
            pairs.append((x, y, rep))
        # a lone longest cycle c is the degenerate pair (c, c): its cut is c itself.
        # The scan stops at the first pair over the bound, the one reported; with
        # none, the first pair is reported
        scanned = pairs or [(c, c, xy_separator(g, c, c)) for c in first]
        over = next((i for i, (_, _, rep) in enumerate(scanned) if not rep.bound_satisfied), None)
        stats["thm14_pairs_checked"] = len(scanned) if over is None else over + 1
        outcomes.append(verify_thm14(g, *scanned[over or 0]))
        if suite == "all":
            outcomes.extend(_structural_checks(facts, complete, pairs, stats))

    # read after the checks, so that c(G) and κ use the orbit of 0 where one of them searched it
    try:
        cycle_length = facts.length
    except BudgetExceededError:
        cycle_length = None  # the enumeration's outcome, or babai's, carries the kept error
    connectivity = facts.connectivity if g.n >= 2 else None
    if degree is not None and connectivity is not None and degree >= 2 and cycle_length is not None:
        # observational ratios for the asymptotic statements (no pass/fail)
        if m_min is not None and connectivity >= 1:
            observations["m_min_over_k23"] = round(m_min / connectivity ** (2 / 3), 6)
        # regular vertex-transitive graphs are claimed Omega(d)-connected with
        # no stated constant; report against the citable 2(d+1)/3 form only
        observations["connectivity_vs_two_thirds_degree"] = round(
            connectivity / (2 * (degree + 1) / 3), 6
        )

    return VerificationReport(
        instance_id=instance_id,
        n=g.n,
        degree=degree,
        connectivity=connectivity,
        cycle_length=cycle_length,
        cycle_count=None if cs is None else len(cs),
        truncated=None if suite == "babai" else cs is not None and cs.truncated,
        m_min=m_min,
        separator_size=separator_size,
        separator_bound=separator_bound,
        outcomes=tuple(outcomes),
        observations=observations,
        stats=stats,
    )


STRUCTURAL_CHECKS = ("prop21_nonempty", "prop21_transversal", "lemma32_clean",
                     "lemma35_clean", "supersaturation", "exchange_absent")


def _structural_checks(facts: InstanceFacts, cs: CycleSet, pairs: list,
                       stats: dict) -> list[Outcome]:
    """Pairwise checks: nonempty intersections, transversal cuts, clean aux graphs.

    ``pairs`` holds each checked pair with the separator that thm14 read; a
    pair with two nonempty remainders gets its aux graph from that separator's
    path family, once, for the aux-graph checks and the exchange.
    Whether a cut meets every longest cycle depends on the cut alone, so the
    Prop. 2.1 scan runs once per distinct cut and its verdict is shared.
    The scan stops at the first failing pair: its first failed check fails with
    the witness and every other check passes. prop21 needs a 2-connected graph.
    An exchange search that runs out of ``facts.budget`` leaves
    ``exchange_absent`` inconclusive, naming the budget, unless a later pair
    fails it; the scan goes on, since the exchange is a pair's last check.
    """
    g = facts.g
    two_connected = g.n >= 3 and facts.connectivity >= 2
    transversal: dict[frozenset[int], bool] = {}
    failed = witness = exhausted = None
    checked = 0
    for checked, (x, y, rep) in enumerate(pairs, 1):
        try:
            failed, witness = _pair_failure(g, cs, x, y, rep, two_connected, transversal,
                                            facts.budget)
        except BudgetExceededError as err:
            exhausted = exhausted or err
            continue
        if failed is not None:
            break
    stats["structural_pairs_checked"] = checked
    names = STRUCTURAL_CHECKS if two_connected else STRUCTURAL_CHECKS[2:]
    outcomes = [Outcome(name, "fail", witness=witness) if name == failed else Outcome(name, "pass")
                for name in names]
    if exhausted is not None and failed != "exchange_absent":  # the last check
        outcomes[-1] = Outcome("exchange_absent", "inconclusive", detail=str(exhausted))
    return outcomes


def _pair_failure(g: Graph, cs: CycleSet, x: CycleEmbedding, y: CycleEmbedding,
                  rep: SeparatorReport, two_connected: bool,
                  transversal: dict[frozenset[int], bool], budget: int):
    """The first structural check one pair fails, with its witness, or (None, None).

    ``transversal`` maps each cut already scanned to whether it meets every
    longest cycle; a new cut's verdict is added to it. The aux-graph checks
    stop at a pair whose family has an empty side, read off ``rep``'s
    terminals. A witness is built only for a failing pair. The exchange
    searches run under ``budget`` and raise ``BudgetExceededError`` past it.
    """
    def pair(**more) -> dict:
        return {"x": list(x.vertices), "y": list(y.vertices), **more}

    if two_connected and not rep.m:
        return "prop21_nonempty", pair()
    if two_connected:
        meets_all = transversal.get(rep.cut)
        if meets_all is None:
            meets_all = transversal[rep.cut] = is_t_transversal(g, cs, rep.cut, 1)
        if not meets_all:
            return "prop21_transversal", {"cut": sorted(rep.cut)}
    family = rep.witness
    if not (rep.m and family.source_set and family.target_set):
        return None, None  # an empty remainder leaves nothing to connect or exchange
    try:
        f = pair_aux(g, x, y, rep)
    except SameSegmentPairError:
        return "lemma32_clean", pair()
    if type_census(f)[(0, 0)]:
        return "lemma32_clean", pair()
    ls = sorted(l_set(f))
    if not pairwise_noncrossing(ls):
        return "lemma35_clean", {"l_set": ls}
    sat = supersaturation_report(f)
    if sat.assumption_met and not (sat.sum_ok and sat.l_ok and sat.edge_bound_ok):
        return "supersaturation", {"m": sat.m, "edges": sat.edge_count}
    improved = improve_by_four_cycles(g, x, y, f, budget)
    if improved is not None:
        return "exchange_absent", pair(improved=[list(c.vertices) for c in improved])
    return None, None


def run_corpus(spec: CorpusSpec, suite: str = "all") -> list[VerificationReport]:
    """Analyze every corpus instance; abort on the first theorem-check failure."""
    reports = []
    for instance_id, facts in corpus_instances(spec):
        report = analyze_instance(instance_id, facts, spec, suite)
        reports.append(report)
        if report.worst_status() == "fail":
            break
    return reports


def reports_to_json(reports: list[VerificationReport], spec: CorpusSpec, suite: str) -> str:
    """The ``verify`` document: suite, corpus, one object per report, and a summary."""
    statuses = [r.worst_status() for r in reports]
    return json_text({
        "suite": suite,
        "corpus": {"kind": spec.kind, "params": spec.params, "seed": spec.seed},
        "instances": reports,
        "summary": {
            "total": len(reports),
            "failed": statuses.count("fail"),
            "inconclusive": statuses.count("inconclusive"),
        },
    })


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` plus a newline, written directly.

    Every JSON document the CLI prints comes from here. A ``VerificationReport``
    is written as the object of its fields and an ``Outcome`` as the object of
    its fields that are set (neither None nor ""), with no dict built for
    either; tuples are written as lists. A dict key that is not a ``str``
    raises ``TypeError``. A float is written by ``json.dumps`` itself, so its
    text, ``NaN`` and ``Infinity`` included, is json's by construction. Each
    object, a report included, is joined into one string once; the text of
    each distinct witness-free outcome is written once per document, at each
    indent it appears at, and then reused.
    """
    out: list[str] = []
    _write(value, out, "\n", {})
    out.append("\n")
    return "".join(out)


def _write(value, out: list[str], newline: str, memo: dict) -> None:
    """Append the JSON text of ``value``; ``newline`` breaks a line at its indent.

    An object's text is joined into one string before it is appended.
    ``memo`` maps the indent and fields of each witness-free outcome written
    so far to its text. ``lhs`` and ``rhs`` enter the key by ``repr``, since
    1 == 1.0 and 0.0 == -0.0, yet json writes each apart.
    """
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        out.append(scalar(value))
        return
    if kind is list or kind is tuple:
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, out, inner, memo)
            out.append(",")
        out[-1] = newline + "]" if value else "[]"  # the last item takes no comma
        return
    key = None
    if kind is dict:
        items = sorted(value.items())
    elif kind is VerificationReport:
        items = sorted(vars(value).items())
    elif kind is Outcome:
        if value.witness is None:
            key = (newline, value.name, value.status, repr(value.lhs), repr(value.rhs), value.detail)
            if (text := memo.get(key)) is not None:
                out.append(text)
                return
        items = sorted([(k, v) for k, v in vars(value).items() if v is not None and v != ""])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    inner = newline + "  "
    part = ["{"]
    for name, item in items:
        scalar = _SCALAR_TEXT.get(type(item))
        if scalar is None:
            part.append(f"{inner}{encode_basestring_ascii(name)}: ")
            _write(item, part, inner, memo)
            part.append(",")
        else:
            part.append(f"{inner}{encode_basestring_ascii(name)}: {scalar(item)},")
    part[-1] = part[-1][:-1] + newline + "}" if items else "{}"
    out.append("".join(part))
    if key is not None:
        memo[key] = out[-1]


# the text of each scalar, by exact type; a float's is json's own
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
