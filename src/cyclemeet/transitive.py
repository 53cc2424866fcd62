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
``BudgetExceededError``, as the cycle search does. An automorphism is its
permutation tuple. The orbit of vertex 0 comes with one automorphism per
orbit vertex, which ``graphs.vertex_connectivity`` can use; whether a graph
is vertex-transitive is read off it, for any graph up to the vertex cap. The
node budget is the search's only limit. A labelled circulant needs no
search: the translation x -> x + 1 is checked in one pass and seeds the
orbit, and an n-cycle among the orbit's maps builds a Hamiltonian cycle.
"""

from __future__ import annotations

import re
from itertools import chain
from math import gcd
from typing import Iterable, Optional, Sequence

from .cycles import DEFAULT_BUDGET, BudgetExceededError, CycleEmbedding
from .graphs import VERTEX_CAP, Graph, check_vertex_set, is_regular, iter_bits


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


def automorphism_mapping(g: Graph, a: int, b: int,
                         budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, ...]]:
    """An automorphism of g sending a to b, as its permutation tuple, or None; complete.

    The root partition is ({a}, rest) against ({b}, rest). For a regular g
    only the singletons split it: the unit partition is equitable, so a
    vertex's count into the rest is d minus its count into the singleton
    (McKay, 1981), and the rest as a splitter would repeat that split.
    Below the root, left cell i maps only onto right cell i. A branch on u
    tries the right cell's candidates in cyclic order from just above u:
    those above u ascending, then the rest. The search then tends to find a
    translation-like map first, whose cycle through 0 is long, rather than
    an involution such as a circulant's reflection x -> v - x. On a
    complete graph the search 0 -> 1 finds x -> x + 1 (mod n), not the
    transposition (0 1).
    """
    check_vertex_set(g, (a, b))
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    cells_g = [c for c in (1 << a, g.full_mask ^ 1 << a) if c]
    cells_h = [c for c in (1 << b, g.full_mask ^ 1 << b) if c]
    queue = list(zip(cells_g, cells_h))
    if is_regular(g) is not None:
        queue = queue[:1]
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
            for left, right in zip(cells_g, cells_h):
                perm[left.bit_length() - 1] = right.bit_length() - 1
            for u, row in enumerate(g._rows):
                if sum(1 << perm[v] for v in iter_bits(row)) != g._rows[perm[u]]:
                    return None
            return tuple(perm)
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


def vertex_orbit_of_zero(g: Graph, budget: int = DEFAULT_BUDGET) -> dict[int, tuple[int, ...]]:
    """The orbit of vertex 0 under the automorphism group, as u -> an automorphism sending 0 to u.

    Automorphisms are permutation tuples. When the translation x -> x + 1
    (mod n) is an automorphism, as on a labelled circulant, it is the map for
    vertex 1 and no search runs: its powers reach every vertex. Otherwise one
    ``automorphism_mapping`` search runs for each vertex not yet in the
    orbit. Each map found and its inverse become generators. The orbit is
    closed under them as a Schreier tree: a vertex reached as gen[w] keeps
    gen composed with w's map, so a translation gives maps[k] = x -> x + k,
    the maps the search finds too. ``budget`` is per search; an exhausted one
    raises ``BudgetExceededError``.
    """
    if g.n == 0:
        return {}
    maps = {0: tuple(range(g.n))}
    gens: list[tuple[int, ...]] = []
    shift = _translation(g)
    for v in range(1, g.n):
        if v in maps:
            continue
        # v = 1 comes first; a translation puts every vertex in the orbit
        auto = shift or automorphism_mapping(g, 0, v, budget)
        if auto is None:
            continue
        gens += (auto, _invert_perm(auto))
        maps[v] = auto
        # close the orbit under all generators found so far
        frontier = list(maps)
        while frontier:
            w = frontier.pop()
            for gen in gens:
                img = gen[w]
                if img not in maps:
                    maps[img] = _compose_perm(gen, maps[w])
                    frontier.append(img)
    return maps


def _translation(g: Graph) -> Optional[tuple[int, ...]]:
    """x -> x + 1 (mod n) when it is an automorphism of g, else None.

    It is one iff each vertex's row, rotated up by one place, is its
    successor's row.
    """
    n, rows, full = g.n, g._rows, g.full_mask
    for v in range(n):
        if (rows[v] << 1 | rows[v] >> (n - 1)) & full != rows[(v + 1) % n]:
            return None
    return (*range(1, n), 0)


def circulant_hamiltonian_cycle(g: Graph,
                                maps: dict[int, tuple[int, ...]]) -> Optional[CycleEmbedding]:
    """A Hamiltonian cycle of g built from an n-cycle among the orbit maps, else None.

    ``maps`` is ``vertex_orbit_of_zero``'s. An automorphism σ that is one
    n-cycle makes g a circulant: relabelled k for σ^k(0), g is
    ``circulant(n, S)`` with S read off the neighbours of 0. Every connected
    Cayley graph of an abelian group on at least 3 elements is Hamiltonian
    (Chen and Quimpo, 1981), and the cycle is built as in their induction. A
    Hamiltonian cycle C of the subgroup H = <d> (at first H = {0}) grows for
    each s in S outside H. With r the index of H in H + <s>, the cosets
    H + js (0 <= j < r) are the layers of a cylinder whose columns are C's
    vertices. The new cycle runs along layer 0, snakes through layers
    1..r-1 over columns 1..|C|-1, and returns down column 0. g is
    disconnected, and None is returned, when S leaves H short of Z_n. The
    result is checked as a cycle of g; a failed check is an internal error.
    """
    n = g.n
    for sigma in maps.values():
        order = [0]  # σ^k(0), k = 0, 1, ...
        while (x := sigma[order[-1]]) != 0:
            order.append(x)
        if len(order) == n:
            break
    else:
        return None
    label = {v: k for k, v in enumerate(order)}
    seq, d = [0], n
    for s in sorted(label[v] for v in iter_bits(g._rows[0])):
        if s % d:
            r, m = d // gcd(d, s), len(seq)
            for j in range(1, r):
                cols = range(m - 1, 0, -1) if j % 2 else range(1, m)
                seq += [(seq[i] + j * s) % n for i in cols]
            seq += [j * s % n for j in range(r - 1, 0, -1)]
            d = gcd(d, s)
    if d != 1 or n < 3:
        return None
    try:
        return CycleEmbedding.from_sequence(g, (order[k] for k in seq))
    except ValueError as err:
        raise RuntimeError(f"circulant cycle construction failed: {err}") from None


def is_vertex_transitive(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the automorphism group has a single vertex orbit; ``budget`` is per search.

    A graph that is not regular needs no search. Otherwise an exhausted
    search raises ``BudgetExceededError``.
    """
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
    # Graph checks n against its vertex cap before it draws the first edge
    return Graph(n, ((i, (i + s) % n) for i in range(n) for s in conn if i < (i + s) % n))


def parse_group(text: str) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Parse a group file into (generators, connection set), both as permutation tuples.

    ``perm n: (c y c l e)(...); ...`` gives its permutations of 0..n-1 as
    both, each stored on the points that the cycles name, relabelled
    0, 1, ... in increasing order. Every element fixes the other points, so
    the group's sorted order and its Cayley graph are those of the
    permutations of 0..n-1, and the work grows with the text, not with n.
    ``cyclic n: s1,s2,...`` is Z_n as its rotation group: the
    generator x -> x + 1 and the connection set of the rotations
    x -> x + s_i (mod n), whose Cayley graph is ``circulant(n, S)`` for
    S = {s1, s2, ...} (see ``cayley``). The degree n must be at least 1.
    """
    head, _, body = text.strip().partition(":")
    parts = head.split()
    if len(parts) != 2:
        raise ValueError(f"bad group header: {head!r}")
    kind, n = parts[0].lower(), int(parts[1])
    if kind not in ("cyclic", "perm"):
        raise ValueError(f"unknown group kind {kind!r}")
    if n < 1:
        raise ValueError(f"group degree must be at least 1, got {n}")
    if kind == "cyclic":
        if n > VERTEX_CAP:  # Z_n has n elements; refused before any n-tuple is built
            raise ValueError(f"group order exceeds cap of {VERTEX_CAP}")
        steps = [int(tok) for tok in body.replace(",", " ").split()]
        rotations = tuple(tuple((x + s) % n for x in range(n)) for s in steps)
        return (tuple((x + 1) % n for x in range(n)),), rotations
    moves = [_parse_cycles(chunk, n) for chunk in body.split(";") if chunk.strip()]
    index = {p: i for i, p in enumerate(sorted(set().union(*moves)))}
    perms = tuple(tuple(index[move.get(p, p)] for p in index) for move in moves)
    return perms, perms


# \d is what int() reads: Unicode decimal digits, not the superscripts str.isdigit takes
_CYCLE_NOTATION = re.compile(r"[ ,]*(?:\([ ,\d]*\)[ ,]*)*")


def _parse_cycles(text: str, n: int) -> dict[int, int]:
    """One permutation of 0..n-1 in disjoint cycle notation, as each named point's image.

    The text is cycles in parentheses, their points and the gaps around them
    separated by spaces and commas; anything else is malformed. A point must
    lie in 0..n-1 and appear once in the permutation.
    """
    if not _CYCLE_NOTATION.fullmatch(text):
        raise ValueError("malformed cycle notation: cycles of digits in parentheses,"
                         " separated by spaces or commas")
    perm: dict[int, int] = {}
    for body in re.findall(r"\(([^)]*)\)", text):
        cycle = [int(tok) for tok in body.replace(",", " ").split()]
        for at, v in enumerate(cycle):
            if not 0 <= v < n:
                raise ValueError(f"point {v} outside 0..{n - 1} in cycle notation")
            if v in perm:
                raise ValueError(f"point {v} repeated in one permutation")
            perm[v] = cycle[(at + 1) % len(cycle)]
    return perm


def _compose_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q: i -> p[q[i]]."""
    return tuple(map(p.__getitem__, q))


def _invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _closure(identity: tuple[int, ...], generators: Sequence[tuple[int, ...]]) -> list:
    """The group the generators make, sorted; ``ValueError`` above ``VERTEX_CAP`` elements.

    A Cayley graph has one vertex per element, so a larger group's graph
    would exceed the graph cap.
    """
    elements = {identity}
    frontier = [identity]
    while frontier:
        e = frontier.pop()
        for gen in generators:
            nxt = _compose_perm(e, gen)
            if nxt not in elements:
                if len(elements) >= VERTEX_CAP:
                    raise ValueError(f"group order exceeds cap of {VERTEX_CAP}")
                elements.add(nxt)
                frontier.append(nxt)
    return sorted(elements)


def cayley(generators: Sequence[Sequence[int]],
           connection: Optional[Iterable[Sequence[int]]] = None) -> Graph:
    """Cayley graph of the permutation group the generators make.

    The connection set (the generators by default) must be non-empty,
    inverse-closed, identity-free and inside the group. Vertex i is the
    i-th group element in sorted order; g ~ g*s for every s in the
    connection. Vertex-transitive by construction (left translations).
    For Z_n as its rotation group (``parse_group``'s ``cyclic``), the
    rotation x -> x + k is the only element whose tuple starts with k, so
    it is vertex k, and its neighbours k*s are the rotations by k + s: the
    graph is ``circulant(n, S)``.
    """
    gens = tuple(tuple(p) for p in generators)
    if not gens:
        raise ValueError("permutation group needs generators")
    conn = set(gens) if connection is None else {tuple(p) for p in connection}
    if not conn:
        raise ValueError("empty connection set")
    identity = tuple(range(len(gens[0])))
    elements = _closure(identity, gens)
    if identity in conn:
        raise ValueError("identity in connection set")
    if any(_invert_perm(s) not in conn for s in conn):
        raise ValueError("connection set not inverse-closed")
    if any(s not in elements for s in conn):
        raise ValueError("connection element outside the group")
    index = {e: i for i, e in enumerate(elements)}
    return Graph(len(elements), ((i, index[_compose_perm(e, s)])
                                 for i, e in enumerate(elements) for s in conn))


def symmetric_transpositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Every transposition of 0..n-1: generators of S_n, and its connection set as well."""
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            p = list(range(n))
            p[i], p[j] = p[j], p[i]
            gens.append(tuple(p))
    return tuple(gens)


def elementary_abelian_cube() -> tuple[tuple[int, ...], ...]:
    """Z_2^3 acting on itself by XOR with each unit vector; as connection set, the 3-cube."""
    return tuple(tuple(v ^ (1 << b) for v in range(8)) for b in range(3))
