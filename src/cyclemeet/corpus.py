"""Deterministic graph corpora: exhaustive small graphs, seeded families, zoo.

The exhaustive corpus, every connected graph through 8 vertices up to
isomorphism (12113 graphs), is the shipped graph6 data file
``data/connected_upto8.g6``, ordered by order and then by edge count. The
test suite proves the file against an independent oracle: for each n it
holds the known number of connected graphs (OEIS A001349), each one
connected, and networkx finds no two of them isomorphic.
"""

from __future__ import annotations

import random
from importlib import resources
from typing import Iterable

from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_graph6,
    grid_graph,
    is_connected,
    petersen_graph,
    prism_graph,
    wheel_graph,
)
from .transitive import (
    GroupPresentation,
    cayley,
    circulant,
    elementary_abelian_cube,
    symmetric_transpositions,
)

DATA_FILE = "connected_upto8.g6"


def load_connected_corpus(max_n: int = 8) -> list[Graph]:
    """Connected graphs up to isomorphism from the shipped data file."""
    if max_n > 8:
        raise ValueError("stored corpus covers n <= 8")
    ref = resources.files("cyclemeet").joinpath("data").joinpath(DATA_FILE)
    # a graph6 line of a graph with n <= 62 starts with the byte n + 63, so
    # lines of larger graphs are skipped before they are parsed
    lines = ref.read_bytes().split()
    return [graph_from_graph6(line.decode("ascii")) for line in lines if line[0] - 63 <= max_n]


# -- seeded families ----------------------------------------------------------


def random_graph(n: int, p: float, seed: int) -> Graph:
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability p must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graphs(
    count: int, seed: int, n_choices: Iterable[int], p_choices: Iterable[float]
) -> list[Graph]:
    """Seeded connected graphs, each on a drawn n with each edge kept with a drawn p."""
    rng = random.Random(seed)
    ns = list(n_choices)
    if not ns:
        raise ValueError("n_choices must not be empty")
    ps = list(p_choices)
    out: list[Graph] = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        n = rng.choice(ns)
        p = rng.choice(ps)
        g = random_graph(n, p, rng.randrange(1 << 30))
        if g.edge_count and is_connected(g):
            out.append(g)
    if len(out) < count:
        raise ValueError(
            f"could not draw count={count} connected graphs on {min(ns)}..{max(ns)} vertices"
        )
    return out


def is_biconnected(g: Graph) -> bool:
    """2-connected: connected, n >= 3, and no cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    full = g.full_mask
    for v in range(g.n):
        live = full & ~(1 << v)
        start = live & -live
        if g.reach_mask(start, live) != live:
            return False
    return True


def random_circulants(count: int, seed: int, max_n: int = 32) -> list[Graph]:
    """Seeded connected circulants on 5..max_n vertices, distinct as (n, connection) pairs."""
    if max_n < 5:
        raise ValueError(f"max_n must be at least 5, got {max_n}")
    rng = random.Random(seed)
    seen: set[tuple[int, tuple[int, ...]]] = set()
    out: list[Graph] = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        n = rng.randrange(5, max_n + 1)
        half = [s for s in range(1, n // 2 + 1)]
        size = rng.randrange(1, min(4, len(half)) + 1)
        picks = rng.sample(half, size)
        conn = set()
        for s in picks:
            conn.add(s)
            conn.add((n - s) % n)
        key = (n, tuple(sorted(conn)))
        if key in seen:
            continue
        seen.add(key)
        g = circulant(n, conn)
        if is_connected(g):
            out.append(g)
    if len(out) < count:
        raise ValueError(
            f"could not draw count={count} distinct circulants on 5..{max_n} vertices"
        )
    return out


def dihedral_presentation(n: int) -> GroupPresentation:
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return GroupPresentation(kind="permutation", order=2 * n, generators=(rotation, reflection))


def cayley_zoo() -> list[Graph]:
    """Small named Cayley graphs, all connected and vertex-transitive."""
    out = [
        cayley(symmetric_transpositions(3)),
        cayley(elementary_abelian_cube()),
        cayley(symmetric_transpositions(4)),
    ]
    for n in (4, 5, 6, 7, 8):
        gp = dihedral_presentation(n)
        rot = gp.generators[0]
        refl = gp.generators[1]
        inv_rot = tuple((i - 1) % n for i in range(n))
        out.append(cayley(gp, connection=[rot, inv_rot, refl]))
    return out


def vertex_transitive_corpus(count: int = 200, seed: int = 7, max_n: int = 32) -> list[Graph]:
    """At least `count` connected vertex-transitive graphs on <= max_n vertices."""
    fixed = [cycle_graph(n) for n in range(3, 13)]
    fixed += [complete_graph(n) for n in range(3, 9)]
    fixed.append(petersen_graph())
    fixed += [prism_graph(n) for n in range(3, 9)]
    fixed += [complete_bipartite(k, k) for k in range(2, 6)]
    fixed += cayley_zoo()
    out = [g for g in fixed if g.n <= max_n]
    if len(out) < count:
        try:
            out += random_circulants(count - len(out), seed, max_n=max_n)
        except ValueError:
            raise ValueError(
                f"could not draw count={count} vertex-transitive graphs on <= {max_n} vertices"
            ) from None
    return out


def two_triangles_shared_vertex() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two degree-3 hubs joined by three internally disjoint paths."""
    if min(a, b, c) < 1 or [a, b, c].count(1) > 1:
        raise ValueError("paths must have positive length with at most one direct edge")
    edges = []
    n = 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return Graph(n, edges)


def pairwise_corpus(max_n: int = 14, seed: int = 11, random_count: int = 30) -> list[Graph]:
    """2-connected graphs with enumerable longest-cycle sets for pair checks.

    The random graphs have 6..max_n vertices, so drawing any needs max_n >= 6.
    """
    if random_count > 0 and max_n < 6:
        raise ValueError(f"max_n must be at least 6, got {max_n}")
    zoo: list[Graph] = [
        cycle_graph(5),
        cycle_graph(8),
        complete_graph(4),
        complete_graph(5),
        two_triangles_shared_vertex(),
        wheel_graph(5),
        wheel_graph(6),
        complete_bipartite(2, 3),
        complete_bipartite(3, 3),
        complete_bipartite(3, 4),
        theta_graph(2, 2, 3),
        theta_graph(1, 3, 3),
        theta_graph(2, 3, 4),
        prism_graph(3),
        prism_graph(4),
        prism_graph(5),
        petersen_graph(),
        grid_graph(2, 4),
        grid_graph(3, 3),
        grid_graph(2, 6),
        grid_graph(3, 4),
        circulant(8, {1, 7, 4}),
        circulant(10, {2, 8, 5}),
        circulant(11, {1, 10, 3, 8}),
        circulant(12, {1, 11, 6}),
        circulant(13, {1, 12, 5, 8}),
        circulant(14, {1, 13, 7}),
    ]
    rng = random.Random(seed)
    drawn = 0
    attempts = 0
    while drawn < random_count and attempts < 200 * random_count:
        attempts += 1
        n = rng.randrange(6, max_n + 1)
        p = rng.choice([0.25, 0.35, 0.45])
        g = random_graph(n, p, rng.randrange(1 << 30))
        if is_biconnected(g):
            zoo.append(g)
            drawn += 1
    return [g for g in zoo if g.n <= max_n]
