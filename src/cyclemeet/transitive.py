"""Vertex-transitive graph generation and automorphism search.

Automorphisms are found by equitable-partition refinement plus backtracking
over color classes; no external canonical-labeling dependency. Adequate for
the toolkit's instance sizes (vertex-transitivity is decided up to 64
vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph, iter_bits

AUTOMORPHISM_CAP = 64


@dataclass(frozen=True)
class Automorphism:
    """Adjacency-preserving vertex bijection."""

    perm: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.perm[v]

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.perm)
        for v, w in enumerate(self.perm):
            inv[w] = v
        return Automorphism(tuple(inv))


def _refine(g: Graph, colors: tuple[int, ...]) -> tuple[int, ...]:
    """Equitable refinement: split classes by neighbor-color multisets to a fixpoint."""
    current = colors
    while True:
        signatures = []
        for v in range(g.n):
            neigh = tuple(sorted(current[w] for w in g.neighbors(v)))
            signatures.append((current[v], neigh))
        order = sorted(set(signatures))
        renumber = {sig: c for c, sig in enumerate(order)}
        fresh = tuple(renumber[sig] for sig in signatures)
        if fresh == current:
            return fresh
        current = fresh


def _cells(colors: tuple[int, ...]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _search_mapping(
    g: Graph, h: Graph, colors_g: tuple[int, ...], colors_h: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    """Color-respecting isomorphism g -> h, or None. Complete backtracking."""
    colors_g = _refine(g, colors_g)
    colors_h = _refine(h, colors_h)
    cells_g = _cells(colors_g)
    cells_h = _cells(colors_h)
    if sorted((c, len(vs)) for c, vs in cells_g.items()) != sorted(
        (c, len(vs)) for c, vs in cells_h.items()
    ):
        return None
    branch = None
    for c in sorted(cells_g):
        if len(cells_g[c]) > 1:
            branch = c
            break
    if branch is None:
        perm = [0] * g.n
        for c, vs in cells_g.items():
            perm[vs[0]] = cells_h[c][0]
        for u in range(g.n):
            for v in iter_bits(g.row(u)):
                if not h.has_edge(perm[u], perm[v]):
                    return None
        if g.edge_count != h.edge_count:
            return None
        return tuple(perm)
    fresh = max(colors_g) + 1
    u = cells_g[branch][0]
    for w in cells_h[branch]:
        cg = tuple(fresh if v == u else colors_g[v] for v in range(g.n))
        ch = tuple(fresh if v == w else colors_h[v] for v in range(h.n))
        found = _search_mapping(g, h, cg, ch)
        if found is not None:
            return found
    return None


def find_isomorphism(g: Graph, h: Graph) -> Optional[Automorphism]:
    """An isomorphism g -> h as a vertex map, or None."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    base_g = tuple(0 for _ in range(g.n))
    base_h = tuple(0 for _ in range(h.n))
    perm = _search_mapping(g, h, base_g, base_h)
    return None if perm is None else Automorphism(perm)


def automorphism_mapping(g: Graph, a: int, b: int) -> Optional[Automorphism]:
    """An automorphism of g sending a to b, or None."""
    fresh = g.n + 1
    cg = tuple(fresh if v == a else 0 for v in range(g.n))
    ch = tuple(fresh if v == b else 0 for v in range(g.n))
    perm = _search_mapping(g, g, cg, ch)
    return None if perm is None else Automorphism(perm)


def vertex_orbit_of_zero(g: Graph) -> frozenset[int]:
    """Orbit of vertex 0 under the automorphism group."""
    if g.n == 0:
        return frozenset()
    orbit = {0}
    gens: list[Automorphism] = []
    for v in range(1, g.n):
        if v in orbit:
            continue
        auto = automorphism_mapping(g, 0, v)
        if auto is None:
            continue
        gens.append(auto)
        gens.append(auto.inverse())
        # close the orbit under all generators found so far
        frontier = list(orbit | {v})
        orbit.add(v)
        while frontier:
            w = frontier.pop()
            for gen in gens:
                img = gen(w)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
    return frozenset(orbit)


def is_vertex_transitive(g: Graph) -> bool:
    """True iff the automorphism group has a single vertex orbit."""
    if g.n > AUTOMORPHISM_CAP:
        raise ValueError(f"automorphism search capped at {AUTOMORPHISM_CAP} vertices")
    if g.n <= 1:
        return True
    d = g.degree(0)
    if any(g.degree(v) != d for v in range(1, g.n)):
        return False
    return len(vertex_orbit_of_zero(g)) == g.n


# -- generators ---------------------------------------------------------------


def circulant(n: int, connection: Iterable[int]) -> Graph:
    """Circulant graph: i ~ i+s (mod n) for each s in the connection set."""
    if n < 1:
        raise ValueError(f"circulant order must be at least 1, got {n}")
    conn = sorted({s % n for s in connection})
    if not conn:
        raise ValueError("empty connection set")
    if 0 in conn:
        raise ValueError("connection set cannot contain 0")
    for s in conn:
        if (n - s) % n not in conn:
            raise ValueError(f"connection set not symmetric: {s} without {(n - s) % n}")
    edges = [(i, (i + s) % n) for i in range(n) for s in conn if i < (i + s) % n]
    return Graph(n, edges)


@dataclass(frozen=True)
class GroupPresentation:
    """Cyclic group given by its order, or a permutation group by generators."""

    kind: str  # "cyclic" | "permutation"
    order: int
    generators: tuple = ()

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"group order must be at least 1, got {self.order}")

    @staticmethod
    def parse(text: str) -> "GroupPresentation":
        """Parse `cyclic n: s1,s2,...` or `perm n: (c y c l e)(...); ...`."""
        head, _, body = text.strip().partition(":")
        parts = head.split()
        if len(parts) != 2:
            raise ValueError(f"bad group header: {head!r}")
        kind, n_str = parts[0].lower(), parts[1]
        n = int(n_str)
        if kind == "cyclic":
            gens = tuple(int(tok) for tok in body.replace(",", " ").split())
            return GroupPresentation(kind="cyclic", order=n, generators=gens)
        if kind == "perm":
            if n < 1:
                raise ValueError(f"permutation degree must be at least 1, got {n}")
            perms = []
            for chunk in body.split(";"):
                chunk = chunk.strip()
                if chunk:
                    perms.append(_parse_cycles(chunk, n))
            elements = _closure(tuple(range(n)), perms)
            return GroupPresentation(kind="permutation", order=len(elements),
                                     generators=tuple(perms))
        raise ValueError(f"unknown group kind {kind!r}")


def _parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """One permutation of 0..n-1 in disjoint cycle notation."""
    perm = list(range(n))
    depth = 0
    current: list[int] = []
    seen: set[int] = set()
    token = ""

    def flush_token():
        if token:
            v = int(token)
            if not 0 <= v < n:
                raise ValueError(f"point {v} outside 0..{n - 1} in cycle notation")
            if v in seen:
                raise ValueError(f"point {v} repeated in one permutation")
            seen.add(v)
            current.append(v)

    for ch in text:
        if ch == "(":
            if depth:
                raise ValueError("nested parenthesis in cycle notation")
            depth = 1
            current = []
            token = ""
        elif ch == ")":
            if not depth:
                raise ValueError("unbalanced parenthesis in cycle notation")
            flush_token()
            token = ""
            depth = 0
            for a, b in zip(current, current[1:] + current[:1]):
                perm[a] = b
        elif ch in " ,":
            flush_token()
            token = ""
        elif ch.isdigit():
            if not depth:
                raise ValueError("point outside parentheses in cycle notation")
            token += ch
        else:
            raise ValueError(f"bad character {ch!r} in cycle notation")
    if depth:
        raise ValueError("unbalanced parenthesis in cycle notation")
    return tuple(perm)


def _compose_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def _invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


GROUP_ORDER_CAP = 128


def _closure(identity: tuple[int, ...], generators: Sequence[tuple[int, ...]]) -> list:
    elements = {identity}
    frontier = [identity]
    while frontier:
        e = frontier.pop()
        for gen in generators:
            nxt = _compose_perm(e, gen)
            if nxt not in elements:
                if len(elements) >= GROUP_ORDER_CAP:
                    raise ValueError(f"group order exceeds cap of {GROUP_ORDER_CAP}")
                elements.add(nxt)
                frontier.append(nxt)
    return sorted(elements)


def cayley(gp: GroupPresentation, connection: Optional[Iterable] = None) -> Graph:
    """Cayley graph of the group over an inverse-closed, identity-free connection set.

    Vertex i is the i-th group element in sorted order; g ~ g*s for every s
    in the connection. Vertex-transitive by construction (left translations).
    """
    if gp.kind == "cyclic":
        conn = set(connection) if connection is not None else set(gp.generators)
        conn = {s % gp.order for s in conn}
        if 0 in conn:
            raise ValueError("identity in connection set")
        if any((gp.order - s) % gp.order not in conn for s in conn):
            raise ValueError("connection set not inverse-closed")
        return circulant(gp.order, conn)
    if gp.kind != "permutation":
        raise ValueError(f"unknown group kind {gp.kind!r}")
    gens = tuple(tuple(p) for p in gp.generators)
    identity = tuple(range(len(gens[0]))) if gens else ()
    if not gens:
        raise ValueError("permutation group needs generators")
    elements = _closure(identity, gens)
    conn_perms = (
        [tuple(p) for p in connection] if connection is not None else list(gens)
    )
    conn_set = set(conn_perms)
    if identity in conn_set:
        raise ValueError("identity in connection set")
    if any(_invert_perm(s) not in conn_set for s in conn_set):
        raise ValueError("connection set not inverse-closed")
    if any(s not in elements for s in conn_set):
        raise ValueError("connection element outside the group")
    index = {e: i for i, e in enumerate(elements)}
    edges = set()
    for e in elements:
        for s in conn_set:
            w = index[_compose_perm(e, s)]
            v = index[e]
            if v != w:
                edges.add((min(v, w), max(v, w)))
    return Graph(len(elements), sorted(edges))


def symmetric_transpositions(n: int) -> GroupPresentation:
    """S_n presented by all transpositions (used with itself as connection)."""
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            p = list(range(n))
            p[i], p[j] = p[j], p[i]
            gens.append(tuple(p))
    order = 1
    for t in range(2, n + 1):
        order *= t
    return GroupPresentation(kind="permutation", order=order, generators=tuple(gens))


def elementary_abelian_cube() -> GroupPresentation:
    """Z_2^3 acting on itself; unit vectors as generators gives the 3-cube."""
    # realize Z_2^3 by permutations of 0..7 via XOR with each unit vector
    gens = tuple(tuple(v ^ (1 << b) for v in range(8)) for b in range(3))
    return GroupPresentation(kind="permutation", order=8, generators=gens)
