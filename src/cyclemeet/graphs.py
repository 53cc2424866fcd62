"""Immutable undirected graphs on dense integer vertex ids.

Adjacency is stored as one bitmask row per vertex, which keeps neighborhood
intersection and BFS frontiers at one machine-word operation per 64 vertices.
Graphs never change after construction; algorithms that need "deletion" pass
an allowed-vertex mask instead.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Mapping, Optional

VERTEX_CAP = 128


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph with vertices 0..n-1, immutable after construction.

    Self-loops are rejected; duplicate edges collapse. Instances hash and
    compare by value, so they are safe dict keys and cache keys.
    """

    __slots__ = ("n", "_rows", "edge_count", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > VERTEX_CAP:
            raise ValueError(f"graph has {n} vertices, above the cap of {VERTEX_CAP}")
        rows = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not rows[u] >> v & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                count += 1
        self.n = n
        self._rows = tuple(rows)
        self.edge_count = count
        self._hash = hash((n, self._rows))

    # -- basic accessors -------------------------------------------------

    def row(self, v: int) -> int:
        """Neighbor bitmask of v."""
        return self._rows[v]

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            for v in iter_bits(self._rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- mask utilities ---------------------------------------------------

    def neighbors_of_mask(self, mask: int) -> int:
        """Union of neighbor rows over the vertices in mask (may overlap mask)."""
        rows = self._rows
        out = 0
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def reach_mask(self, start: int, allowed: int) -> int:
        """Vertices reachable from the start mask inside allowed (start included)."""
        seen = frontier = start & allowed
        while frontier:
            frontier = self.neighbors_of_mask(frontier) & allowed & ~seen
            seen |= frontier
        return seen


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def check_vertex_set(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Validate vertices against g and return them as a frozenset."""
    vs = frozenset(vertices)
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} not in graph of order {g.n}")
    return vs


# -- structural operations ------------------------------------------------


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one connected component (vacuously true for n=0)."""
    if g.n == 0:
        return True
    return g.reach_mask(1, g.full_mask) == g.full_mask


def is_regular(g: Graph) -> Optional[int]:
    """The common degree d when g is d-regular, else None."""
    if g.n == 0:
        return None
    d = g.degree(0)
    if all(g.degree(v) == d for v in range(1, g.n)):
        return d
    return None


def vertex_connectivity(g: Graph, maps: Optional[Mapping[int, tuple[int, ...]]] = None) -> int:
    """Minimum number of vertices whose removal disconnects g or leaves one vertex.

    Equals n-1 for complete graphs. Otherwise it follows Esfahanian and
    Hakimi (1984): take v of least degree d; N(v) is a cut, so the answer
    is at most d. A minimum cut S either misses v, and then separates v
    from some non-neighbour w, or contains v; then v has a neighbour in
    every component of g - S (else S - v would still be a cut), so S
    separates two non-adjacent neighbours of v. Hence the answer is the
    least of d, the local connectivity of v to each non-neighbour, and that
    of each non-adjacent pair in N(v). Each local connectivity stops once
    it reaches the best value so far.

    ``maps``, when given, is the orbit of vertex 0 from
    ``transitive.vertex_orbit_of_zero``: each orbit vertex u with an
    automorphism sending 0 to u. It is used when 0 is a least-degree
    vertex, so v = 0. Then maps[w] carries the pair {0, maps[w]⁻¹(0)} to
    {w, 0}, so the two pairs have one local connectivity and one flow
    serves both. When the orbit also has more than d vertices, some orbit
    vertex u lies outside a given minimum cut S, and maps[u]⁻¹ carries S to
    a minimum cut that misses 0 (Watkins, 1970, for a vertex-transitive
    graph); so the C(d, 2) neighbour pairs are not needed.
    """
    if g.n < 2:
        raise ValueError("undefined connectivity")
    if g.edge_count == g.n * (g.n - 1) // 2:
        return g.n - 1
    if not is_connected(g):
        return 0
    from .flow import local_vertex_connectivity

    v = min(range(g.n), key=g.degree)  # the first of least degree: 0 whenever 0 is one
    d = g.degree(v)
    around = g.row(v)
    far = iter_bits(g.full_mask & ~around & ~(1 << v))
    if maps is not None and v == 0:
        far = _one_per_partner(far, maps)
    pairs = [(v, w) for w in far]
    if maps is None or v != 0 or len(maps) <= d:
        pairs += [(x, y) for x, y in combinations(iter_bits(around), 2) if not g.has_edge(x, y)]
    best = d
    for s, t in pairs:
        best = local_vertex_connectivity(g, s, t, best)
    return best


def _one_per_partner(far: Iterable[int], maps: Mapping[int, tuple[int, ...]]) -> list[int]:
    """The non-neighbours w of 0 left once w is dropped where w or its partner was met.

    The partner of an orbit vertex w is maps[w]⁻¹(0), and κ(0, w) equals
    κ(0, partner); a vertex outside the orbit is its own partner.
    """
    kept = []
    met = 0
    for w in far:
        partner = maps[w].index(0) if w in maps else w
        if not (met >> w | met >> partner) & 1:
            kept.append(w)
        met |= 1 << w | 1 << partner
    return kept


def is_forest(g: Graph) -> bool:
    """True iff g has no cycle, that is, n - e(G) is its number of components.

    Each round takes one component off the remaining vertices, the one that
    holds the lowest of them.
    """
    remaining = g.full_mask
    components = 0
    while remaining:
        remaining &= ~g.reach_mask(remaining & -remaining, remaining)
        components += 1
    return g.edge_count == g.n - components


# -- named graphs -----------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def wheel_graph(n: int) -> Graph:
    """Hub vertex n joined to every vertex of an n-cycle."""
    if n < 3:
        raise ValueError("wheel rim needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(n)]
    return Graph(n + 1, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def petersen_graph() -> Graph:
    """Outer pentagon 0-4, inner pentagram 5-9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def prism_graph(n: int) -> Graph:
    """Two n-cycles joined by a perfect matching (circular ladder)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


# -- graph6 format ----------------------------------------------------------
#
# De-facto standard format: printable bytes 63..126, a size header followed
# by the upper triangle of the adjacency matrix in column order, packed into
# big-endian 6-bit groups.


def graph_to_graph6(g: Graph) -> str:
    if g.n <= 62:
        header = bytes([g.n + 63])
    elif g.n <= 258047:
        header = bytes(
            [126, ((g.n >> 12) & 0x3F) + 63, ((g.n >> 6) & 0x3F) + 63, (g.n & 0x3F) + 63]
        )
    else:
        raise ValueError("graph too large for graph6")
    acc = 0  # the upper triangle, column by column, first bit highest
    for j in range(1, g.n):
        row = g._rows[j]
        for i in range(j):
            acc = acc << 1 | (row >> i & 1)
    length = g.n * (g.n - 1) // 2
    pad = -length % 6
    acc <<= pad
    body = bytes([(acc >> k & 63) + 63 for k in range(length + pad - 6, -1, -6)])
    return (header + body).decode("ascii")


def graph_from_graph6(text: str) -> Graph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    raw = data.encode("ascii")
    if not raw:
        raise ValueError("empty graph6 string")
    if raw[0] == 126:
        if len(raw) >= 2 and raw[1] == 126:
            raise ValueError("graph6 strings beyond 258047 vertices unsupported")
        if len(raw) < 4:
            raise ValueError("truncated graph6 header")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    if n < 0:
        raise ValueError("invalid graph6 header byte")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for byte in body:
        val = byte - 63
        if not 0 <= val < 64:
            raise ValueError("invalid graph6 body byte")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    if any(bits[idx:]):
        raise ValueError("nonzero padding bits in graph6 body")
    return Graph(n, edges)
