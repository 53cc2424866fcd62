"""Vertex-disjoint path families, minimum vertex cuts and local connectivity.

One routine, ``_menger``, finds every augmenting path. Each vertex has unit
capacity (terminals included, so families are disjoint down to their
endpoints) and is split into an entry and an exit side, but no network is
built: the flow lives in per-vertex successor and predecessor lists, and BFS
frontiers come off the adjacency bitmasks. Instance sizes make asymptotics
irrelevant; the payoff is that both sides of Menger's equality come out of
one run and can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class SeparatorReport:
    """A vertex cut with its matching maximum disjoint-path family.

    For cycle-pair separators, m is the shared vertex count and bound is the
    certified ceiling sqrt(10)*m^1.5 + 1.5*m on the cut size; the family
    avoids the shared vertices, which the cut holds besides, so
    |cut| = m + max_disjoint_paths.
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
    """Exact integer test of cut_size <= sqrt(10)*m^1.5 + 1.5*m, or of cut_size <= 1 for m = 0.

    Disjoint longest cycles only occur across blocks, where one cut vertex
    separates them; that size-1 cut is the certified ceiling for m = 0.
    """
    if m == 0:
        return cut_size <= 1
    lhs = 2 * cut_size - 3 * m
    return lhs <= 0 or lhs * lhs <= 40 * m**3


def edge_bound_holds(edge_count: int, m: int) -> bool:
    """Exact integer test of edge_count <= sqrt(10)*m^1.5 + m/2."""
    lhs = 2 * edge_count - m
    return lhs <= 0 or lhs * lhs <= 40 * m**3


def _menger(g: Graph, a: int, b: int, allowed: int, cutoff: Optional[int]):
    """Most vertex-disjoint (a,b)-paths inside allowed, by unit augmenting paths.

    a and b are disjoint vertex masks inside the allowed mask. Each vertex
    has an entry and an exit side joined by one unit of capacity (Even,
    *Graph Algorithms*, 1979), so the residual graph stays implicit: a
    vertex on a path is in ``carry`` with its flow predecessor and
    successor, -1 at a path's ends. Each round is one BFS that visits the
    sides in a fixed order: the sources' entry sides, ascending; from an
    entry side, its own exit side if the vertex is free, else the exit side
    of its flow predecessor; from an exit side, its entry side if the vertex
    carries flow, then its unused edges to allowed non-source neighbours,
    ascending. The first target exit side reached ends the round.

    Returns the flow value (at most cutoff, when given), the successor list,
    the mask of sources that start paths, and the (entry, exit) masks of the
    final residual reach, or None when the cutoff ended the run.
    """
    rows = g._rows
    n = g.n
    succ = [-1] * n
    pred = [-1] * n
    carry = 0
    enter = allowed & ~a  # the vertices an edge of the flow may enter
    heads = [2 * s for s in iter_bits(a)]
    value = 0
    while value != cutoff:
        # node 2v is the entry side of v and 2v + 1 its exit side
        parent = [-1] * (2 * n)
        seen_in = a
        seen_out = 0
        queue = heads[:]
        end = -1
        for node in queue:
            v = node >> 1
            if node & 1:
                if carry >> v & 1 and not seen_in >> v & 1:
                    seen_in |= 1 << v
                    parent[node - 1] = node
                    queue.append(node - 1)
                fresh = rows[v] & enter & ~seen_in
                if succ[v] >= 0:
                    fresh &= ~(1 << succ[v])
                seen_in |= fresh
                while fresh:
                    low = fresh & -fresh
                    w = 2 * low.bit_length() - 2
                    parent[w] = node
                    queue.append(w)
                    fresh ^= low
                continue
            u = pred[v] if carry >> v & 1 else v
            if u < 0 or seen_out >> u & 1:
                continue
            seen_out |= 1 << u
            parent[2 * u + 1] = node
            if b >> u & 1:
                end = 2 * u + 1
                break
            queue.append(2 * u + 1)
        if end < 0:
            return value, succ, carry & a, (seen_in, seen_out)
        node = end
        while (p := parent[node]) >= 0:
            v, u = node >> 1, p >> 1
            if u == v:
                carry ^= 1 << v  # entry to exit fills v, exit to entry empties it
            elif p & 1:
                succ[u] = v
                pred[v] = u
            else:
                # undoes the flow edge from v to u; the walk runs backwards,
                # so v may already have its new successor
                pred[u] = -1
                if succ[v] == u:
                    succ[v] = -1
            node = p
        value += 1
    return value, succ, carry & a, None


def max_disjoint_paths(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    allowed: Optional[Iterable[int]] = None,
) -> PathFamily:
    """A maximum family of pairwise vertex-disjoint (a,b)-paths.

    Paths meet a exactly in their first vertex and b exactly in their last;
    interior vertices may be anything inside `allowed` (default: all). It is
    the Menger witness of ``min_vertex_cut``, checked as that is.
    """
    return min_vertex_cut(g, a, b, allowed).witness


def min_vertex_cut(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    allowed: Optional[Iterable[int]] = None,
) -> SeparatorReport:
    """Minimum vertex set meeting every (a,b)-path, with its Menger witness.

    a and b must be disjoint vertex sets; paths may pass through ``allowed``
    (default: all) besides them. One ``_menger`` run gives both sides: the
    paths follow its successor lists from the sources that start one, and
    the cut, nearest the sources, is the vertices whose entry side alone the
    final residual search reached. Three checks cross-check the flow, and a
    failed one is an internal error: the path family is validated, the cut
    has as many vertices as the family has paths (Menger's equality), and a
    search from a inside ``allowed`` minus the cut reaches no vertex of b.
    """
    avs = check_vertex_set(g, a)
    bvs = check_vertex_set(g, b)
    if avs & bvs:
        raise ValueError("overlapping terminals")
    a_mask, b_mask = mask_of(avs), mask_of(bvs)
    allowed_mask = g.full_mask if allowed is None else mask_of(check_vertex_set(g, allowed))
    allowed_mask |= a_mask | b_mask
    value, succ, starts, (entered, left) = _menger(g, a_mask, b_mask, allowed_mask, None)
    paths = []
    for s in iter_bits(starts):
        path = [s]
        while succ[path[-1]] >= 0:
            path.append(succ[path[-1]])
        paths.append(tuple(path))
    cut = frozenset(iter_bits(entered & ~left))
    family = PathFamily(paths=tuple(paths), source_set=avs, target_set=bvs)
    if len(family.paths) != value:
        raise RuntimeError("flow decomposition lost a path")
    family.validate(g)
    if len(cut) != value:
        raise RuntimeError(f"Menger equality violated: |cut|={len(cut)} paths={value}")
    live = allowed_mask & ~mask_of(cut)
    if g.reach_mask(a_mask & live, live) & b_mask:
        raise RuntimeError("cut fails to separate its terminal sets")
    return SeparatorReport(cut=cut, max_disjoint_paths=value, witness=family)


def xy_separator(g: Graph, x: CycleEmbedding, y: CycleEmbedding) -> SeparatorReport:
    """The paper's cut between two cycles: M = V(x) ∩ V(y) plus a minimum cut of G - M.

    One flow, in G - M, between the remainders X - M and Y - M, so the cut
    has m + e(F) vertices, F the pair's auxiliary graph. The witness is that
    flow's maximum family of (X-M, Y-M)-paths that avoid M, from which
    ``pair_aux`` builds F. When either remainder is empty the cut is M and
    the family empty; for m = 0 the flow runs in all of G. Either way the
    report is the flow's, or the empty family's, with M added to the cut
    and m and the bound set.
    """
    xv = x.vertex_set()
    yv = y.vertex_set()
    shared = xv & yv
    a = xv - shared
    b = yv - shared
    if a and b:
        base = min_vertex_cut(g, a, b, allowed=frozenset(range(g.n)) - shared)
    else:
        empty = PathFamily(paths=(), source_set=a, target_set=b)
        base = SeparatorReport(cut=frozenset(), max_disjoint_paths=0, witness=empty)
    m = len(shared)
    return replace(base, cut=base.cut | shared, m=m, bound=math.sqrt(10) * m**1.5 + 1.5 * m)


def local_vertex_connectivity(g: Graph, s: int, t: int, cutoff: Optional[int] = None) -> int:
    """Maximum number of internally disjoint (s,t)-paths (direct edge counts).

    Stops at cutoff, when given, and returns it once that many are found. A
    maximum family can take the edge st and the path s-c-t through each
    common neighbour c; the other paths are disjoint paths from N(s) to N(t)
    that avoid s, t and the common neighbours.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"vertices {s}, {t} not both in graph of order {g.n}")
    if s == t:
        raise ValueError("local connectivity needs two distinct vertices")
    near_s, near_t = g.row(s), g.row(t)
    common = near_s & near_t
    base = (near_s >> t & 1) + common.bit_count()
    if cutoff is not None and base >= cutoff:
        return cutoff
    inner = g.full_mask & ~(1 << s | 1 << t | common)
    rest = None if cutoff is None else cutoff - base
    return base + _menger(g, near_s & inner, near_t & inner, inner, rest)[0]
