"""Host graphs and seeded instance families that only the tests use.

The hand-built hosts realize the exchange configurations; the families feed
the oracle and Menger acceptance criteria.
"""

from __future__ import annotations

import random
from itertools import combinations

from cyclemeet.corpus import random_connected_graphs, random_graph, theta_graph
from cyclemeet.cycles import CycleEmbedding
from cyclemeet.flow import PathFamily
from cyclemeet.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    iter_bits,
    petersen_graph,
    wheel_graph,
)
from cyclemeet.transitive import circulant


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its vertices renamed by a seeded random permutation.

    A circulant so renamed is still one, yet x -> x + 1 is seldom an
    automorphism of the copy, so its orbit of 0 is searched.
    """
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


def symmetric_connection_sets(max_n: int):
    """(n, steps) for every n <= max_n and every non-empty connection set of Z_n closed under -s."""
    for n in range(2, max_n + 1):
        half = range(1, n // 2 + 1)
        for size in range(1, len(half) + 1):
            for picks in combinations(half, size):
                yield n, sorted({s for p in picks for s in (p, n - p)})


def petersen_minus_vertex() -> Graph:
    p = petersen_graph()
    edges = [(u, v) for u, v in p.edges() if u != 9 and v != 9]
    return Graph(9, edges)


def nine_vertex_sample(count: int = 120, seed: int = 5) -> list[Graph]:
    """Structured plus seeded-random connected graphs on exactly 9 vertices."""
    structured = [
        cycle_graph(9),
        complete_graph(9),
        complete_bipartite(4, 5),
        wheel_graph(8),
        grid_graph(3, 3),
        circulant(9, {1, 8}),
        circulant(9, {1, 8, 3, 6}),
        circulant(9, {2, 7, 3, 6}),
        theta_graph(2, 3, 5),
        petersen_minus_vertex(),
    ]
    random_part = random_connected_graphs(
        max(0, count - len(structured)),
        seed,
        n_choices=[9],
        p_choices=[0.2, 0.25, 0.3, 0.4, 0.55, 0.75],
    )
    return structured + random_part


def menger_instances(
    count: int = 1000, seed: int = 3, max_n: int = 40
) -> list[tuple[Graph, frozenset[int], frozenset[int]]]:
    """Seeded (graph, a, b) triples with disjoint nonempty terminal sets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(4, max_n + 1)
        p = rng.choice([0.08, 0.15, 0.25, 0.4])
        g = random_graph(n, p, rng.randrange(1 << 30))
        vertices = list(range(n))
        rng.shuffle(vertices)
        a_size = rng.randrange(1, max(2, n // 3))
        b_size = rng.randrange(1, max(2, n // 3))
        if a_size + b_size > n:
            continue
        a = frozenset(vertices[:a_size])
        b = frozenset(vertices[a_size : a_size + b_size])
        out.append((g, a, b))
    return out


def type00_host(long_path: bool = False):
    """Two 6-cycles sharing w1=0, w2=1, four connecting paths in the (0,0) pattern.

    With unit paths the certificate surplus is 8; `long_path` stretches one
    path to two edges, pushing the surplus to 10.
    """
    # X = 0-2-3-1-4-5-0, Y = 0-6-7-1-8-9-0
    x_edges = [(0, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 0)]
    y_edges = [(0, 6), (6, 7), (7, 1), (1, 8), (8, 9), (9, 0)]
    if long_path:
        paths = [(2, 6), (3, 10, 8), (4, 7), (5, 9)]
        n = 11
    else:
        paths = [(2, 6), (3, 8), (4, 7), (5, 9)]
        n = 10
    path_edges = [(p[t], p[t + 1]) for p in paths for t in range(len(p) - 1)]
    g = Graph(n, x_edges + y_edges + path_edges)
    x = CycleEmbedding.from_sequence(g, [0, 2, 3, 1, 4, 5])
    y = CycleEmbedding.from_sequence(g, [0, 6, 7, 1, 8, 9])
    family = PathFamily(
        paths=tuple(sorted(tuple(p) for p in paths)),
        source_set=frozenset({2, 3, 4, 5}),
        target_set=frozenset({6, 7, 8, 9}),
    )
    return g, x, y, family


def exchange_hosts(count: int, seed: int):
    """Seeded (g, x, y, family) hosts for the exchange certificates.

    X and Y meet in 2 to 4 shared vertices, and Y meets them in a random
    order. Each segment has 0 to 4 vertices. Each connecting path has 1 to 3
    edges, its interior on fresh vertices, and a path now and then lands on a
    segment pair that already has one, so ``build_aux`` raises
    SameSegmentPairError. Vertex labels are shuffled, so either cycle's
    canonical start may fall inside a segment.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randrange(2, 5)
        fresh = iter(range(m, 10**6))
        x_segs = [[next(fresh) for _ in range(rng.randrange(5))] for _ in range(m)]
        y_segs = [[next(fresh) for _ in range(rng.randrange(5))] for _ in range(m)]
        x_seq = [v for w in range(m) for v in (w, *x_segs[w])]
        y_seq = [v for w, seg in zip(rng.sample(range(m), m), y_segs) for v in (w, *seg)]
        xs = frozenset(v for seg in x_segs for v in seg)
        ys = frozenset(v for seg in y_segs for v in seg)
        if not (xs and ys):
            continue
        paths, pairs = [], set()
        for _ in range(rng.randrange(1, 17)):
            x_open = [i for i in range(m) if x_segs[i]]
            y_open = [j for j in range(m) if y_segs[j]]
            if not (x_open and y_open):
                break
            i, j = rng.choice(x_open), rng.choice(y_open)
            if (i, j) in pairs and rng.random() < 0.9:
                continue
            pairs.add((i, j))
            u = x_segs[i].pop(rng.randrange(len(x_segs[i])))
            v = y_segs[j].pop(rng.randrange(len(y_segs[j])))
            paths.append((u, *(next(fresh) for _ in range(rng.randrange(3))), v))
        n = next(fresh)
        label = rng.sample(range(n), n)
        x_seq = [label[v] for v in x_seq]
        y_seq = [label[v] for v in y_seq]
        paths = [tuple(label[v] for v in p) for p in paths]
        edges = [(s[t - 1], s[t]) for s in (x_seq, y_seq) for t in range(len(s))]
        edges += [(p[t], p[t + 1]) for p in paths for t in range(len(p) - 1)]
        g = Graph(n, edges)
        x = CycleEmbedding.from_sequence(g, x_seq)
        y = CycleEmbedding.from_sequence(g, y_seq)
        family = PathFamily(
            paths=tuple(sorted(paths)),
            source_set=frozenset(label[v] for v in xs),
            target_set=frozenset(label[v] for v in ys),
        )
        out.append((g, x, y, family))
    return out


def random_cycle_pairs(count: int, seed: int):
    """Seeded (g, x, y): two random walks in one random graph, each closed into a cycle."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng.randrange(7, 13), rng.choice([0.3, 0.45]), rng.randrange(1 << 30))
        x, y = _random_cycle(g, rng), _random_cycle(g, rng)
        if x is not None and y is not None and x != y:
            out.append((g, x, y))
    return out


def _random_cycle(g: Graph, rng: random.Random):
    walk = [rng.randrange(g.n)]
    while True:
        closes = len(walk) >= 3 and g.has_edge(walk[-1], walk[0])
        ahead = [w for w in iter_bits(g.row(walk[-1])) if w not in walk]
        if closes and (not ahead or rng.random() < 0.3):
            return CycleEmbedding.from_sequence(g, walk)
        if not ahead:
            return None
        walk.append(rng.choice(ahead))


def prop22_host():
    """Two 8-cycles sharing two vertices, two paths landing on one segment pair."""
    x_edges = [(0, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 7), (7, 0)]
    y_edges = [(0, 8), (8, 9), (9, 10), (10, 1), (1, 11), (11, 12), (12, 13), (13, 0)]
    g = Graph(14, x_edges + y_edges + [(2, 8), (3, 10)])
    x = CycleEmbedding.from_sequence(g, [0, 2, 3, 4, 1, 5, 6, 7])
    y = CycleEmbedding.from_sequence(g, [0, 8, 9, 10, 1, 11, 12, 13])
    return g, x, y, (2, 8), (3, 10)


def lemma33_host(bit_x: int, bit_y: int):
    """Two 12-cycles sharing four vertices, eight unit paths forming two
    type-(1,0) 4-cycles with crossing X-pairs (1,3),(2,4) and separated
    Y-pairs (1,2),(3,4). The bits choose the free endpoint orderings of the
    second 4-cycle, giving the four distinct configurations."""
    w = [0, 1, 2, 3]
    a = list(range(4, 12))
    b = list(range(12, 20))
    x_seq = [w[0], a[0], a[1], w[1], a[2], a[3], w[2], a[4], a[5], w[3], a[6], a[7]]
    y_seq = [w[0], b[0], b[1], w[1], b[2], b[3], w[2], b[4], b[5], w[3], b[6], b[7]]
    x_edges = list(zip(x_seq, x_seq[1:] + x_seq[:1]))
    y_edges = list(zip(y_seq, y_seq[1:] + y_seq[:1]))
    # first 4-cycle on segments (1,3)x(1,2), fixed type-(1,0) orientation
    paths = [(a[0], b[0]), (a[1], b[2]), (a[5], b[1]), (a[4], b[3])]
    # second 4-cycle on segments (2,4)x(3,4), orderings controlled by the bits
    if bit_x:
        u23, u24, u43, u44 = a[2], a[3], a[7], a[6]
    else:
        u23, u24, u43, u44 = a[3], a[2], a[6], a[7]
    if bit_y:
        v23, v43, v24, v44 = b[4], b[5], b[6], b[7]
    else:
        v23, v43, v24, v44 = b[5], b[4], b[7], b[6]
    paths += [(u23, v23), (u24, v24), (u43, v43), (u44, v44)]
    g = Graph(20, x_edges + y_edges + paths)
    x = CycleEmbedding.from_sequence(g, x_seq)
    y = CycleEmbedding.from_sequence(g, y_seq)
    family = PathFamily(
        paths=tuple(sorted(paths)),
        source_set=frozenset(a),
        target_set=frozenset(b),
    )
    return g, x, y, family


def lemma33_shared_y_host():
    """Two type-(1,0) 4-cycles with crossing X-pairs (1,3),(2,4) whose Y-pairs
    (1,2),(2,3) share the index 2, so Lemma 3.3 does not apply.

    Both cycles have 2-vertex segments, except Y_2, which has four vertices
    to end four paths.
    """
    w = [0, 1, 2, 3]
    a = list(range(4, 12))
    b = list(range(12, 22))
    x_seq = [w[0], a[0], a[1], w[1], a[2], a[3], w[2], a[4], a[5], w[3], a[6], a[7]]
    y_seq = [w[0], b[0], b[1], w[1], b[2], b[3], b[4], b[5], w[2], b[6], b[7], w[3],
             b[8], b[9]]
    x_edges = list(zip(x_seq, x_seq[1:] + x_seq[:1]))
    y_edges = list(zip(y_seq, y_seq[1:] + y_seq[:1]))
    paths = [(a[0], b[0]), (a[1], b[2]), (a[5], b[1]), (a[4], b[3]),  # (1,3) x (1,2)
             (a[2], b[4]), (a[3], b[6]), (a[7], b[5]), (a[6], b[7])]  # (2,4) x (2,3)
    g = Graph(22, x_edges + y_edges + paths)
    x = CycleEmbedding.from_sequence(g, x_seq)
    y = CycleEmbedding.from_sequence(g, y_seq)
    family = PathFamily(paths=tuple(sorted(paths)), source_set=frozenset(a),
                        target_set=frozenset(b))
    return g, x, y, family


def lemma33_host_long_path(bit_x: int = 0, bit_y: int = 0):
    """lemma33_host with one connecting path stretched to two edges."""
    g, x, y, family = lemma33_host(bit_x, bit_y)
    # replace the unit path (4, 12) by 4 - 20 - 12 through a fresh vertex
    edges = [(u, v) for u, v in g.edges() if (u, v) != (4, 12)]
    edges += [(4, 20), (20, 12)]
    g2 = Graph(21, edges)
    paths = tuple(sorted((4, 20, 12) if p == (4, 12) else p for p in family.paths))
    fam = PathFamily(paths=paths, source_set=family.source_set, target_set=family.target_set)
    x2 = CycleEmbedding.from_sequence(g2, x.vertices)
    y2 = CycleEmbedding.from_sequence(g2, y.vertices)
    return g2, x2, y2, fam
