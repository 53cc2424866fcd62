"""Vertex-transitive graph generation and automorphism search.

Automorphisms come from one individualization-refinement search (McKay,
"Practical graph isomorphism", 1981) on adjacency bitmasks. The search keeps
two ordered partitions of one graph g into cells (vertex bitmasks), a left
and a right one, and refines them jointly: a cell splits by its vertices'
neighbour counts in a queued splitter cell, ``(row & splitter).bit_count()``,
into new cells ordered by count, all but the largest queued in turn. Left
cell i maps only onto right cell i, so a node fails as soon as the two
sides' counts or cell sizes differ. Otherwise it branches on the lowest
vertex u of the first non-singleton left cell, individualized against each
vertex of the matching right cell in cyclic order from just above u, so that
the first automorphism found tends to be translation-like rather than an
involution through u; at a discrete partition one row image per vertex
checks the map. A search expands at most ``budget`` nodes and then raises
``BudgetExceededError``, as the cycle search does. The orbit of vertex 0
comes with one automorphism per orbit vertex, which
``graphs.vertex_connectivity`` can use; whether a graph is vertex-transitive
is read off it, for up to 64 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from .cycles import DEFAULT_BUDGET, BudgetExceededError
from .graphs import Graph, check_vertex_set, is_regular, iter_bits

AUTOMORPHISM_CAP = 64


@dataclass(frozen=True)
class Automorphism:
    """Adjacency-preserving vertex bijection."""

    perm: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.perm[v]

    def inverse(self) -> "Automorphism":
        return Automorphism(_invert_perm(self.perm))

    def preimage(self, v: int) -> int:
        """The vertex this map sends to v."""
        return self.perm.index(v)


def _refine_jointly(g: Graph, cells_g: list[int], cells_h: list[int],
                    queue: list[tuple[int, int]]) -> bool:
    """Split two partitions of g in place to equitable ones; False once they differ.

    ``cells_g`` and ``cells_h`` are the left and right partitions, and each
    queued pair is a left splitter cell with its right counterpart.
    """
    while queue:
        split_g, split_h = queue.pop()
        near_g, near_h = g.neighbors_of_mask(split_g), g.neighbors_of_mask(split_h)
        at = 0
        while at < len(cells_g):
            cell_g, cell_h = cells_g[at], cells_h[at]
            at += 1
            if not cell_g & (cell_g - 1) or not (cell_g & near_g or cell_h & near_h):
                continue  # a singleton, or no neighbour in the splitter on either side
            parts_g = _split(g._rows, cell_g, split_g, near_g)
            parts_h = _split(g._rows, cell_h, split_h, near_h)
            counts = sorted(parts_g)
            if counts != sorted(parts_h) or any(
                parts_g[k].bit_count() != parts_h[k].bit_count() for k in counts
            ):
                return False
            if len(counts) > 1:
                cells_g[at - 1:at] = [parts_g[k] for k in counts]
                cells_h[at - 1:at] = [parts_h[k] for k in counts]
                # counts into the (first) largest new cell follow from the others'
                del counts[max(range(len(counts)), key=lambda i: parts_g[counts[i]].bit_count())]
                queue.extend((parts_g[k], parts_h[k]) for k in counts)
                at += len(counts)
    return True


def _split(rows: Sequence[int], cell: int, split: int, near: int) -> dict[int, int]:
    """The cell's vertices by their neighbour count in split, as bitmasks."""
    hit = cell & near
    parts = {0: cell ^ hit} if cell != hit else {}
    while hit:
        low = hit & -hit
        count = (rows[low.bit_length() - 1] & split).bit_count()
        parts[count] = parts.get(count, 0) | low
        hit ^= low
    return parts


def _search(g: Graph, cells_g: list[int], cells_h: list[int],
            queue: list[tuple[int, int]], budget: int) -> Optional[Automorphism]:
    """An automorphism of g sending left cell i onto right cell i, or None; complete.

    ``cells_g`` and ``cells_h`` are two partitions of g, and the root is
    refined by the splitter pairs in ``queue``. A branch on u tries the
    right cell's candidates in cyclic order from just above u: those above
    u ascending, then the rest. The search then tends to find a
    translation-like map first, whose cycle through 0 is long, rather than
    an involution such as a circulant's reflection x -> v - x. On a
    complete graph the search 0 -> 1 finds x -> x + 1 (mod n), not the
    transposition (0 1).
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    nodes = 0

    def node(cells_g, cells_h, queue):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search budget of {budget} node expansions exceeded")
        if not _refine_jointly(g, cells_g, cells_h, queue):
            return None
        at = next((i for i, cell in enumerate(cells_g) if cell & (cell - 1)), None)
        if at is None:
            perm = [0] * g.n
            for a, b in zip(cells_g, cells_h):
                perm[a.bit_length() - 1] = b.bit_length() - 1
            for u, row in enumerate(g._rows):
                if sum(1 << perm[v] for v in iter_bits(row)) != g._rows[perm[u]]:
                    return None
            return Automorphism(tuple(perm))
        cell_g, cell_h = cells_g[at], cells_h[at]
        u = cell_g & -cell_g
        above = cell_h & -(u << 1)
        for w in chain(iter_bits(above), iter_bits(cell_h ^ above)):
            w = 1 << w
            found = node(cells_g[:at] + [u, cell_g ^ u] + cells_g[at + 1:],
                         cells_h[:at] + [w, cell_h ^ w] + cells_h[at + 1:], [(u, w)])
            if found is not None:
                return found
        return None

    return node(cells_g, cells_h, queue)


def automorphism_mapping(g: Graph, a: int, b: int,
                         budget: int = DEFAULT_BUDGET) -> Optional[Automorphism]:
    """An automorphism of g sending a to b, or None.

    The root partition is ({a}, rest) against ({b}, rest). For a regular g
    only the singletons split it: the unit partition is equitable, so a
    vertex's count into the rest is d minus its count into the singleton
    (McKay, 1981), and the rest as a splitter would repeat that split.
    """
    check_vertex_set(g, (a, b))
    cells_g = [c for c in (1 << a, g.full_mask ^ 1 << a) if c]
    cells_h = [c for c in (1 << b, g.full_mask ^ 1 << b) if c]
    queue = list(zip(cells_g, cells_h))
    if is_regular(g) is not None:
        queue = queue[:1]
    return _search(g, cells_g, cells_h, queue, budget)


def vertex_orbit_of_zero(g: Graph, budget: int = DEFAULT_BUDGET) -> dict[int, Automorphism]:
    """The orbit of vertex 0 under the automorphism group, as u -> an automorphism sending 0 to u.

    One ``automorphism_mapping`` search runs for each vertex not yet in the
    orbit; each map found and its inverse become generators. The orbit is
    closed under them as a Schreier tree: a vertex reached as gen(w) keeps
    gen composed with w's map. ``budget`` is per search, and a graph above
    ``AUTOMORPHISM_CAP`` vertices is refused with ``ValueError``.
    """
    if g.n > AUTOMORPHISM_CAP:
        raise ValueError(f"automorphism search capped at {AUTOMORPHISM_CAP} vertices")
    if g.n == 0:
        return {}
    maps = {0: Automorphism(tuple(range(g.n)))}
    gens: list[Automorphism] = []
    for v in range(1, g.n):
        if v in maps:
            continue
        auto = automorphism_mapping(g, 0, v, budget)
        if auto is None:
            continue
        gens += (auto, auto.inverse())
        maps[v] = auto
        # close the orbit under all generators found so far
        frontier = list(maps)
        while frontier:
            w = frontier.pop()
            for gen in gens:
                img = gen(w)
                if img not in maps:
                    maps[img] = Automorphism(_compose_perm(gen.perm, maps[w].perm))
                    frontier.append(img)
    return maps


def is_vertex_transitive(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the automorphism group has a single vertex orbit; ``budget`` is per search."""
    if g.n <= 1:
        return True
    if is_regular(g) is None:
        return False
    return len(vertex_orbit_of_zero(g, budget)) == g.n


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
    """p after q: i -> p[q[i]]."""
    return tuple(map(p.__getitem__, q))


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
