"""Write perfbench/reference/<workload>.json: c(G), kappa(G), m_min and worst status per instance.

Run from the repository root, once per change of a workload definition:

    python3 perfbench/make_reference.py [workload ...]

The values come from `cyclemeet verify` at the commit it runs on and are
cross-checked against networkx before anything is written: kappa(G) with
`node_connectivity` on every instance, and c(G), the longest-cycle count and
m_min with `simple_cycles(length_bound=n)` wherever n <= 10.
"""

from __future__ import annotations

import json
import sys

import networkx as nx

from run import REFERENCE, WORKLOADS, import_cyclemeet

CYCLE_CHECK_MAX_N = 10


def networkx_facts(g6: str) -> dict:
    g = nx.from_graph6_bytes(g6.encode("ascii"))
    n = g.number_of_nodes()
    out = {"kappa": nx.node_connectivity(g) if n >= 2 else None}
    if n <= CYCLE_CHECK_MAX_N:
        cycles = [frozenset(c) for c in nx.simple_cycles(g, length_bound=n)]
        c = max((len(vs) for vs in cycles), default=None)
        longest = [vs for vs in cycles if len(vs) == c]
        out["c"] = c
        out["count"] = len(longest)
        out["m_min"] = min_pairwise_intersection(longest)
    return out


def min_pairwise_intersection(vertex_sets: list[frozenset]) -> int | None:
    if len(vertex_sets) < 2:
        return None
    distinct = set(vertex_sets)
    if len(distinct) < len(vertex_sets):  # two cycles on one vertex set meet in all of it
        best = min(len(vs) for vs in distinct if vertex_sets.count(vs) > 1)
    else:
        best = None
    listed = list(distinct)
    for i in range(len(listed)):
        for j in range(i + 1, len(listed)):
            size = len(listed[i] & listed[j])
            best = size if best is None else min(best, size)
    return best


def reference_for(harness, name: str) -> dict:
    wl = WORKLOADS[name]
    spec = harness.CorpusSpec.parse(wl.corpus, seed=wl.seed)
    instances = {}
    mismatches = []
    cycle_checked = 0
    for report in harness.run_corpus(spec, suite=wl.suite):
        facts = {"c": report.cycle_length, "kappa": report.connectivity, "m_min": report.m_min}
        oracle = networkx_facts(report.instance_id.split(":", 1)[1])
        compared = dict(oracle)
        cycle_checked += "c" in oracle
        if report.truncated or report.cycle_count is None:
            compared.pop("count", None)
            compared.pop("m_min", None)  # the report gives no m_min for a truncated set
        else:
            facts["count"] = report.cycle_count
        for key, want in compared.items():
            if facts[key] != want:
                mismatches.append(f"{report.instance_id}: {key} = {facts[key]}, networkx {want}")
        facts.pop("count", None)
        facts["status"] = report.worst_status()
        instances[report.instance_id] = facts
    if mismatches:
        raise SystemExit("networkx disagrees:\n" + "\n".join(mismatches))
    return {"suite": wl.suite, "corpus": wl.corpus, "seed": wl.seed,
            "cycle_checked": cycle_checked, "instances": instances}


def main(names: list[str]) -> int:
    harness = import_cyclemeet()
    REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        data = reference_for(harness, name)
        rows = [f"{json.dumps(iid)}: {json.dumps(facts)}" for iid, facts in data.pop("instances").items()]
        head = json.dumps(data)[:-1]
        with open(REFERENCE / f"{name}.json", "w", encoding="utf-8") as handle:
            handle.write(head + ', "instances": {\n' + ",\n".join(rows) + "\n}}\n")
        print(f"{name}: {len(rows)} instances, {data['cycle_checked']} with cycles cross-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
