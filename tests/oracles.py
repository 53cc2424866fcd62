"""Brute-force oracles, kept independent of the library's search paths."""

from __future__ import annotations

import itertools

import pytest

from cyclemeet.auxgraph import is_crossing, pairwise_noncrossing
from cyclemeet.cycles import canonical_cycle
from cyclemeet.graphs import Graph, iter_bits, mask_of


def longest_cycle_by_permutations(g: Graph) -> int:
    """c(G) by checking vertex subsets top-down with raw permutation scans."""
    vertices = list(range(g.n))
    for k in range(g.n, 2, -1):
        for subset in itertools.combinations(vertices, k):
            anchor = subset[0]
            for perm in itertools.permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue  # each cycle once per direction
                if not g.has_edge(anchor, perm[0]) or not g.has_edge(perm[-1], anchor):
                    continue
                if all(g.has_edge(a, b) for a, b in zip(perm, perm[1:])):
                    return k
    raise ValueError("no cycle")


def all_cycles_of_length_by_permutations(g: Graph, k: int) -> set[tuple[int, ...]]:
    """Canonical forms of every k-cycle, by raw permutation scan."""
    found = set()
    for subset in itertools.combinations(range(g.n), k):
        anchor = subset[0]
        for perm in itertools.permutations(subset[1:]):
            if perm[0] > perm[-1]:
                continue
            seq = (anchor,) + perm
            if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:] + (anchor,))):
                found.add(canonical_cycle(seq))
    return found


def vertex_connectivity_by_subsets(g: Graph) -> int:
    """κ(G) as the size of the smallest vertex set whose removal disconnects G.

    Scans vertex sets by size and tests what is left with a BFS; n - 1 when
    no set of up to n - 2 vertices disconnects G. Runs no flow code.
    """
    if g.n < 2:
        raise ValueError("undefined connectivity")
    for size in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), size):
            live = g.full_mask & ~mask_of(cut)
            if g.reach_mask(live & -live, live) != live:
                return size
    return g.n - 1


def min_vertex_cut_by_subsets(g: Graph, a: frozenset[int], b: frozenset[int]) -> int:
    """Smallest vertex set meeting every (a,b)-path, by subset enumeration."""

    def separates(cut: frozenset[int]) -> bool:
        live = [v for v in range(g.n) if v not in cut]
        live_set = set(live)
        frontier = [v for v in a if v in live_set]
        seen = set(frontier)
        while frontier:
            u = frontier.pop()
            for w in iter_bits(g.row(u)):
                if w in live_set and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return not seen & b

    for size in range(g.n + 1):
        for cut in itertools.combinations(range(g.n), size):
            if separates(frozenset(cut)):
                return size
    raise AssertionError("unreachable")


def max_noncrossing_by_subsets(m: int) -> int:
    """Largest pairwise non-crossing family by full subset enumeration."""
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    best = 0
    for mask in range(1 << len(pairs)):
        chosen = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
        if len(chosen) <= best:
            continue
        if all(
            not is_crossing(chosen[x], chosen[y])
            for x in range(len(chosen))
            for y in range(x + 1, len(chosen))
        ):
            best = len(chosen)
    return best


def noncrossing_witness(m: int) -> tuple[tuple[int, int], ...]:
    """The nested-plus-adjacent family of size 2m-3: all (1,t) and all (t,t+1)."""
    fam = {(1, t) for t in range(2, m + 1)}
    fam |= {(t, t + 1) for t in range(1, m)}
    return tuple(sorted(fam))


MAX_NONCROSSING_M = 12


def max_noncrossing_family(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact maximum size of a pairwise non-crossing family of pairs over [m].

    Branch-and-bound maximum independent set in the crossing-conflict graph,
    seeded with the nested-plus-adjacent construction. Exact search is kept
    to m <= 12, which covers every segment count the toolkit meets.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if m > MAX_NONCROSSING_M:
        raise ValueError(f"exact search capped at m={MAX_NONCROSSING_M}")
    all_pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    index = {p: t for t, p in enumerate(all_pairs)}
    conflict = [0] * len(all_pairs)
    for a in range(len(all_pairs)):
        for b in range(a + 1, len(all_pairs)):
            if is_crossing(all_pairs[a], all_pairs[b]):
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a

    seed = noncrossing_witness(m)
    assert pairwise_noncrossing(seed)
    best_size = len(seed)
    best_mask = 0
    for p in seed:
        best_mask |= 1 << index[p]

    def extend(chosen_mask: int, chosen_size: int, candidates: int) -> None:
        nonlocal best_size, best_mask
        if chosen_size + candidates.bit_count() <= best_size:
            return
        if not candidates:
            if chosen_size > best_size:
                best_size = chosen_size
                best_mask = chosen_mask
            return
        low = candidates & -candidates
        t = low.bit_length() - 1
        extend(chosen_mask | low, chosen_size + 1, candidates & ~low & ~conflict[t])
        extend(chosen_mask, chosen_size, candidates & ~low)

    extend(0, 0, (1 << len(all_pairs)) - 1)
    family = tuple(all_pairs[t] for t in range(len(all_pairs)) if best_mask >> t & 1)
    if best_size > 2 * m - 3:
        raise RuntimeError(f"non-crossing bound 2m-3 violated at m={m}: found {best_size}")
    return best_size, family


def is_automorphism(g: Graph, perm) -> bool:
    """True iff perm is a permutation of V(G) that preserves adjacency and non-adjacency."""
    if sorted(perm) != list(range(g.n)):
        return False
    return all(
        g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def as_networkx(g: Graph):
    """g as a networkx graph on the same vertices; skips the test without networkx."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph(list(g.edges()))
    h.add_nodes_from(range(g.n))
    return h
