"""Vertex-disjoint path families and minimum vertex cuts between vertex sets.

Vertex capacities are realized by the standard in/out splitting; unit
capacities everywhere (terminals included, so families are disjoint down to
their endpoints), augmenting paths found by BFS. Instance sizes make
asymptotics irrelevant; the payoff is that both sides of Menger's equality
come out of one run and can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .cycles import CycleEmbedding
from .graphs import Graph, check_vertex_set, iter_bits, mask_of


@dataclass(frozen=True)
class PathFamily:
    """Pairwise vertex-disjoint paths, each meeting the source set exactly in its
    first vertex and the target set exactly in its last."""

    paths: tuple[tuple[int, ...], ...]
    source_set: frozenset[int]
    target_set: frozenset[int]

    def __len__(self) -> int:
        return len(self.paths)

    def validate(self, g: Graph) -> None:
        """Raise ValueError when any family invariant fails."""
        seen: set[int] = set()
        for path in self.paths:
            if len(path) < 1:
                raise ValueError("empty path")
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    raise ValueError(f"missing edge ({a},{b})")
            if len(set(path)) != len(path):
                raise ValueError("path repeats a vertex")
            hits_src = [v for v in path if v in self.source_set]
            hits_dst = [v for v in path if v in self.target_set]
            if hits_src != [path[0]]:
                raise ValueError(f"path {path} does not meet sources exactly at its head")
            if hits_dst != [path[-1]]:
                raise ValueError(f"path {path} does not meet targets exactly at its tail")
            overlap = seen.intersection(path)
            if overlap:
                raise ValueError(f"paths share vertices {sorted(overlap)}")
            seen.update(path)

    def to_json_dict(self) -> dict:
        return {
            "paths": [list(p) for p in self.paths],
            "sources": sorted(self.source_set),
            "targets": sorted(self.target_set),
        }


@dataclass(frozen=True)
class SeparatorReport:
    """A vertex cut with its matching maximum disjoint-path family.

    For cycle-pair separators, m is the shared vertex count and bound is the
    certified ceiling sqrt(10)*m^1.5 + 1.5*m on the cut size.
    """

    cut: frozenset[int]
    max_disjoint_paths: int
    witness: PathFamily
    m: Optional[int] = None
    bound: Optional[float] = None

    @property
    def bound_satisfied(self) -> Optional[bool]:
        if self.m is None:
            return None
        return separator_bound_holds(len(self.cut), self.m)

    def to_json_dict(self) -> dict:
        out = {
            "cut": sorted(self.cut),
            "max_disjoint_paths": self.max_disjoint_paths,
            "paths": [list(p) for p in self.witness.paths],
        }
        if self.m is not None:
            out["m"] = self.m
            out["bound"] = self.bound
            out["bound_satisfied"] = self.bound_satisfied
        return out


def separator_bound_holds(cut_size: int, m: int) -> bool:
    """Exact integer test of cut_size <= sqrt(10)*m^1.5 + 1.5*m."""
    lhs = 2 * cut_size - 3 * m
    return lhs <= 0 or lhs * lhs <= 40 * m**3


def edge_bound_holds(edge_count: int, m: int) -> bool:
    """Exact integer test of edge_count <= sqrt(10)*m^1.5 + m/2."""
    lhs = 2 * edge_count - m
    return lhs <= 0 or lhs * lhs <= 40 * m**3


class _SplitNetwork:
    """Unit-capacity flow network for internally disjoint path packing.

    Vertex v becomes v_in=2v and v_out=2v+1 joined by one unit of capacity,
    and each edge uv of the allowed subgraph becomes the unit arcs
    u_out->v_in and v_out->u_in. Terminal sets, when given, hang off a
    super-source and a super-sink. Without them the network serves every
    vertex pair: a flow from s_out to t_in counts internally disjoint
    (s,t)-paths. The network is built once; each flow restarts from the
    base capacities.
    """

    def __init__(
        self,
        g: Graph,
        allowed_mask: int,
        sources: frozenset[int] = frozenset(),
        targets: frozenset[int] = frozenset(),
    ):
        self.g = g
        self.node_count = 2 * g.n + 2
        self.source = 2 * g.n
        self.sink = 2 * g.n + 1
        self.adj: list[list[int]] = [[] for _ in range(self.node_count)]
        self.to: list[int] = []
        self.cap: list[int] = []
        for v in iter_bits(allowed_mask):
            self.add_edge(2 * v, 2 * v + 1, 1)
        for u, v in g.edges():
            if not (allowed_mask >> u & 1 and allowed_mask >> v & 1):
                continue
            # sources are entered only from the super-source, targets left
            # only toward the super-sink: (A,B)-paths touch A and B once.
            # unit edge capacity keeps a direct source-target edge to one path
            if v not in sources and u not in targets:
                self.add_edge(2 * u + 1, 2 * v, 1)
            if u not in sources and v not in targets:
                self.add_edge(2 * v + 1, 2 * u, 1)
        # big source/sink arcs force every min cut across the split arcs,
        # so the cut reads off as a genuine vertex set
        big = g.n + 1
        for s in sorted(sources):
            self.add_edge(self.source, 2 * s, big)
        for t in sorted(targets):
            self.add_edge(2 * t + 1, self.sink, big)
        self.base = tuple(self.cap)

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, source: int, sink: int, cutoff: int) -> int:
        """Flow value from node source to node sink, or cutoff once it is reached.

        Starts from the base capacities and augments along BFS-shortest
        residual paths; the final flow stays in ``cap``.
        """
        adj, to = self.adj, self.to
        cap = self.cap = list(self.base)
        total = 0
        while total < cutoff:
            parent_edge = [-1] * self.node_count
            parent_edge[source] = -2
            queue = [source]
            for u in queue:
                for eid in adj[u]:
                    if cap[eid]:
                        v = to[eid]
                        if parent_edge[v] == -1:
                            parent_edge[v] = eid
                            queue.append(v)
                if parent_edge[sink] != -1:
                    break
            else:
                return total
            v = sink
            while v != source:
                eid = parent_edge[v]
                cap[eid] -= 1
                cap[eid ^ 1] += 1
                v = to[eid ^ 1]
            total += 1
        return total

    def residual_reachable(self) -> set[int]:
        seen = {self.source}
        stack = [self.source]
        while stack:
            u = stack.pop()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def extract_paths(self, sources: frozenset[int]) -> list[tuple[int, ...]]:
        """Decompose the unit flow into vertex sequences, deterministic order."""
        # flow_next[v] = successor vertex of v on its unit of flow
        flow_next: dict[int, int] = {}
        started: set[int] = set()
        for v in range(self.g.n):
            for eid in self.adj[2 * v + 1]:
                w = self.to[eid]
                if eid % 2 == 0 and self.cap[eid ^ 1] > 0 and w != self.sink:
                    flow_next[v] = w // 2
        for eid in self.adj[self.source]:
            if eid % 2 == 0 and self.cap[eid ^ 1] > 0:
                started.add(self.to[eid] // 2)
        paths = []
        for s in sorted(started):
            path = [s]
            while path[-1] in flow_next:
                path.append(flow_next[path[-1]])
            paths.append(tuple(path))
        return paths


def _terminals(g: Graph, a: Iterable[int], b: Iterable[int],
               allowed: Optional[Iterable[int]]) -> tuple[frozenset[int], frozenset[int], int]:
    """Checked disjoint terminal sets and the allowed mask, terminals included."""
    avs = check_vertex_set(g, a)
    bvs = check_vertex_set(g, b)
    if avs & bvs:
        raise ValueError("overlapping terminals")
    allowed_mask = g.full_mask if allowed is None else mask_of(check_vertex_set(g, allowed))
    return avs, bvs, allowed_mask | mask_of(avs) | mask_of(bvs)


def _solve(g: Graph, a: frozenset[int], b: frozenset[int], allowed_mask: int):
    net = _SplitNetwork(g, allowed_mask, a, b)
    # each source vertex carries one unit, so no flow exceeds min(|a|, |b|)
    value = net.max_flow(net.source, net.sink, min(len(a), len(b)))
    paths = net.extract_paths(a)
    reach = net.residual_reachable()
    cut = frozenset(
        v for v in iter_bits(allowed_mask) if 2 * v in reach and 2 * v + 1 not in reach
    )
    return value, paths, cut


def max_disjoint_paths(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    allowed: Optional[Iterable[int]] = None,
) -> PathFamily:
    """A maximum family of pairwise vertex-disjoint (a,b)-paths.

    Paths meet a exactly in their first vertex and b exactly in their last;
    interior vertices may be anything inside `allowed` (default: all).
    """
    avs, bvs, allowed_mask = _terminals(g, a, b, allowed)
    value, paths, _ = _solve(g, avs, bvs, allowed_mask)
    family = PathFamily(paths=tuple(paths), source_set=avs, target_set=bvs)
    if len(family.paths) != value:
        raise RuntimeError("flow decomposition lost a path")
    family.validate(g)
    return family


def min_vertex_cut(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    allowed: Optional[Iterable[int]] = None,
) -> SeparatorReport:
    """Minimum vertex set meeting every (a,b)-path, with its Menger witness."""
    avs, bvs, allowed_mask = _terminals(g, a, b, allowed)
    value, paths, cut = _solve(g, avs, bvs, allowed_mask)
    family = PathFamily(paths=tuple(paths), source_set=avs, target_set=bvs)
    family.validate(g)
    if len(cut) != value:
        raise RuntimeError(f"Menger equality violated: |cut|={len(cut)} paths={value}")
    if not _separates(g, avs, bvs, cut, allowed_mask):
        raise RuntimeError("cut fails to separate its terminal sets")
    return SeparatorReport(cut=cut, max_disjoint_paths=value, witness=family)


def _separates(
    g: Graph, a: frozenset[int], b: frozenset[int], cut: frozenset[int], allowed_mask: int
) -> bool:
    """BFS soundness check: no (a,b)-path survives deleting the cut."""
    live = allowed_mask & ~mask_of(cut)
    start = mask_of(a) & live
    reach = g.reach_mask(start, live)
    return not reach & mask_of(b)


def xy_separator(g: Graph, x: CycleEmbedding, y: CycleEmbedding) -> SeparatorReport:
    """Vertex cut separating two cycles: cut(V(x)-M, V(y)-M) plus M itself."""
    xv = x.vertex_set()
    yv = y.vertex_set()
    shared = xv & yv
    m = len(shared)
    bound = math.sqrt(10) * m**1.5 + 1.5 * m
    a = xv - shared
    b = yv - shared
    if not a or not b:
        empty = PathFamily(paths=(), source_set=frozenset(a), target_set=frozenset(b))
        return SeparatorReport(
            cut=frozenset(shared), max_disjoint_paths=0, witness=empty, m=m, bound=bound
        )
    base = min_vertex_cut(g, a, b)
    return SeparatorReport(
        cut=base.cut | shared,
        max_disjoint_paths=base.max_disjoint_paths,
        witness=base.witness,
        m=m,
        bound=bound,
    )


def local_vertex_connectivity(g: Graph, s: int, t: int) -> int:
    """Maximum number of internally disjoint (s,t)-paths (direct edge counts)."""
    check_vertex_set(g, (s, t))
    if s == t:
        raise ValueError("local connectivity needs two distinct vertices")
    # no vertex has n disjoint paths to another, so the cutoff g.n never bites
    return _SplitNetwork(g, g.full_mask).max_flow(2 * s + 1, 2 * t, g.n)
