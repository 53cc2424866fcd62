"""Exact longest-cycle computation and enumeration.

The search is a DFS branch-and-bound over simple paths anchored at each
cycle's minimum vertex. Each cycle is closed one way only, on an anchor
neighbour above the path's second vertex. At every node the search peels away
the free vertices that cannot lie inside the rest of the cycle (fewer than two
neighbours among the kept free vertices, the head and the anchor), then bounds
by the region the head reaches inside what is kept: the node is cut if the
region holds no vertex the cycle may close on or is too small to reach the
length floor. When the region is exactly large enough (slack zero), the rest
of the cycle must be a Hamiltonian head -> closing-vertex path through it, and
Rubin's required-edge rule (J. ACM 21(4), 1974) applies: a region vertex with
only two neighbours left must use both. There the outcome depends only on the
head, the region and the vertices among them the cycle may close on (the
Held-Karp subproblem), so slack-zero states are remembered, as in the
transposition tables of Vandegriend and Culberson (JAIR 9, 1998). One table
per anchor maps each searched state to the cycles its subtree closed: a
state that closed nothing is skipped when reached again, and one that closed
cycles has their tails replayed behind the new path. The bound is
exact, so every search finds the same c(G), keeps the same cycles and reports
the same ``truncated`` as a plain reachability bound that closes each cycle
both ways, nearly always in far fewer nodes.
Enumeration is the same single pass: it finds c(G) and the cycles of that
length together, and ``budget`` bounds both the node expansions of the whole
pass and the cycles it keeps at once, since a replayed cycle costs no node.
Exceeding the budget is a hard error, never a silent approximation.

The length alone is the same search kept to one cycle (``limit=1``), started
from a certificate. A deterministic rotation-extension walk (Pósa,
"Hamiltonian circuits in random graphs", Discrete Math. 14, 1976) closes a
cycle of some length h, a lower bound on c(G). If h = n the cycle is
Hamiltonian, so c(G) = n with no search at all. Otherwise the search starts
at floor h + 1: it finds c(G) > h, or closes nothing and c(G) = h. The
enumeration and the search's own witness do not use the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .graphs import Graph, check_vertex_set, is_forest, iter_bits, mask_of

DEFAULT_BUDGET = 10**8
DEAD_STATE_CAP = 1 << 15  # slack-zero states the memo holds; a full memo starts afresh


class BudgetExceededError(RuntimeError):
    """Search ran out of node expansions or kept cycles; carries the best length so far."""

    def __init__(self, message: str, best_length: int = 0):
        super().__init__(message)
        self.best_length = best_length


def canonical_cycle(vertices: Iterable[int]) -> tuple[int, ...]:
    """Rotation/reflection of the cyclic sequence that is lexicographically smallest."""
    seq = tuple(vertices)
    pivot = seq.index(min(seq))
    forward = seq[pivot:] + seq[:pivot]
    backward = forward[:1] + forward[1:][::-1]
    return min(forward, backward)


@dataclass(frozen=True)
class CycleEmbedding:
    """A simple cycle stored as its canonical oriented vertex sequence."""

    vertices: tuple[int, ...]

    @classmethod
    def from_sequence(cls, g: Graph, seq: Iterable[int]) -> "CycleEmbedding":
        vs = tuple(seq)
        _check_cycle(g, vs)
        return cls(canonical_cycle(vs))

    @property
    def length(self) -> int:
        """Edge count, which equals the vertex count."""
        return len(self.vertices)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        out = set()
        for a, b in zip(self.vertices, self.vertices[1:] + self.vertices[:1]):
            out.add((a, b) if a < b else (b, a))
        return frozenset(out)

    def is_valid(self, g: Graph) -> bool:
        """Whether the stored sequence is a cycle of g, read the canonical way round."""
        try:
            _check_cycle(g, self.vertices)
        except ValueError:
            return False
        return self.vertices == canonical_cycle(self.vertices)


def _check_cycle(g: Graph, vs: tuple[int, ...]) -> None:
    """Raise ValueError unless vs, read cyclically, is a simple cycle of g."""
    if len(vs) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    if not 0 <= min(vs) <= max(vs) < g.n:
        check_vertex_set(g, vs)  # raises, naming a vertex out of range
    if len(set(vs)) != len(vs):
        raise ValueError("cycle repeats a vertex")
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if not g.has_edge(a, b):
            raise ValueError(f"missing edge ({a},{b})")


@dataclass(frozen=True)
class CycleSet:
    """All cycles of one length, canonicalized and lexicographically ordered.

    ``sequences`` holds each cycle's canonical vertex tuple in that order,
    and ``n`` is the order of the graph they lie in. ``cycles`` wraps them
    as ``CycleEmbedding`` objects on first read, so a caller that reads only
    counts, masks or a few cycles builds no object for the rest.
    """

    length: int
    sequences: tuple[tuple[int, ...], ...]
    n: int
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.cycles)

    @cached_property
    def cycles(self) -> tuple[CycleEmbedding, ...]:
        """Every cycle as a ``CycleEmbedding``, built on first use."""
        return tuple(map(CycleEmbedding, self.sequences))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The vertex bitmask of each cycle, built on first use.

        At length n every cycle covers all n vertices, so each mask is the
        full mask and no cycle is read.
        """
        if self.length == self.n:
            return ((1 << self.n) - 1,) * len(self.sequences)
        return tuple(map(mask_of, self.sequences))

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "count": len(self.sequences),
            "truncated": self.truncated,
            "cycles": [list(c) for c in self.sequences],
        }


class _Search:
    """Anchored branch-and-bound over simple paths in one graph.

    A node is expanded only while its length bound reaches ``floor``. The
    search keeps ``floor = best``, so it meets every cycle of the best length.
    Once ``limit`` cycles are kept it is truncated: ``floor`` returns to
    ``best + 1`` and the rest of the pass only looks for a longer cycle,
    which resets the kept set. At ``limit=1`` that is a length search: each
    close truncates, every later node must beat ``best``, and ``found`` holds
    only the latest close, the witness. Making a search refuses a forest, so
    each search tests for one once, run or not.

    The search closes each cycle one way. At depth 2, ``closers`` becomes the
    anchor's neighbours above ``path[1]``, and a cycle closes only from a head
    in ``closers``; anchored at its minimum and read this way round, every
    closed path is canonical.

    The bound at a node is the region of free vertices that can still lie
    inside the head -> anchor remainder of a cycle. Peeling drops every free
    vertex with fewer than two neighbours among the kept free vertices, the
    head and the anchor, until none is left; the region is what the head
    reaches inside the kept vertices. A node is cut when neither the region
    nor the head is in ``closers`` or ``len(path) + |region| < floor``, and
    its children are drawn from the region.

    At slack zero (``len(path) + |region| == floor``, past the root) any
    cycle left to close runs from the head through every region vertex to
    the anchor, so a region vertex with exactly two neighbours among the
    region, the head and the anchor is forced onto both. The head and the
    anchor each have one edge left, and the anchor's closes the cycle: the
    node is cut when a forced vertex next to the anchor is not in
    ``closers``, when two sit next to the anchor or when two sit next to the
    head, and a single forced vertex next to the head is the only child.

    At slack zero a child closes a cycle exactly when a Hamiltonian path runs
    from its head through its kept set to ``closers``, whatever the path
    before it, and every such cycle has length ``floor``. Its subtree reads
    ``closers`` only on the kept set and the head: in the close test, in the
    closer cut of a region plus its head, and in the forced-vertex rule, which
    looks only at forced vertices inside the region. So ``memo`` maps the
    (closers on kept set and head, kept set, head) state of a searched
    slack-zero child to the ``found[start:end]`` slice its subtree appended,
    empty when it closed nothing. A state is recorded only if the subtree left
    ``floor`` where it stood when the parent was entered and ``best`` where it
    stood when the child was entered. A child entered after a sibling's close
    raised ``floor`` is cut for length without a search, and its state may
    still complete a longer path. A truncated search's child can close a cycle
    of length ``floor`` that becomes the new ``best`` at the same ``floor``,
    and its slice is then gone with the old kept set. A child found in
    ``memo`` with an empty slice is skipped. One with cycles is not searched
    either: each cycle of the slice is appended again with the new path in
    place of its first ``len(path) + 1`` vertices. Replayed cycles come in the
    first visit's order, not in search order, so a replay that would reach
    ``limit`` is searched for real instead, and the kept set stays the first
    ``limit`` closes. ``memo`` holds the states of one anchor: it is cleared
    at each anchor's root and with ``found``, and it holds at most
    ``DEAD_STATE_CAP`` states, and a depth-2 node clears a full one. A
    skipped or replayed child is not a node expansion; a node off slack zero
    runs a loop with no memo work. A replayed cycle costs no node, so the kept
    set is held to ``budget`` on its own: a close or replay that would keep
    more cycles is a budget error, which the search would have hit anyway with
    each kept cycle closed at a node.

    Each cut or skipped subtree holds no cycle the search keeps, and
    ``floor`` never falls. So every search finds the c(G), the kept set and
    the ``truncated`` of a plain reachability bound that closes each cycle
    both ways. The witness ``found[0]`` is the first cycle of length c(G) in
    that bound's close order that is read the canonical way round; the
    bound's own was the first of either orientation. Closing one way can
    delay the floor's rise, so a few searches expand more nodes than that
    bound; nearly all expand far fewer.
    """

    def __init__(self, g: Graph, budget: int, limit: Optional[int] = None):
        if budget < 1:
            raise ValueError("search budget must be at least 1")
        if limit is not None and limit < 1:
            raise ValueError("enumeration limit must be at least 1")
        if is_forest(g):
            raise ValueError("forest has no cycle")
        self.g = g
        self.rows = g._rows
        self.shift = g.n.bit_length()
        self.mask = (1 << self.shift) - 1
        self.budget = budget
        self.limit = limit
        self.nodes = 0
        self.best = 0
        self.floor = 0
        self.found: list[tuple[int, ...]] = []
        self.truncated = False
        self.memo: dict[int, tuple[int, int]] = {}
        self.closers = 0

    def run(self) -> "_Search":
        n = self.g.n
        for anchor in range(n):
            # cycles whose minimum vertex is the anchor
            allowed = ((1 << n) - 1) >> anchor << anchor
            if allowed.bit_count() < self.floor:
                break
            free = allowed ^ 1 << anchor
            self._extend(anchor, [anchor], free, free, 0)
        return self

    def _extend(self, anchor: int, path: list[int], free: int, kept: int, two: int) -> None:
        """Expand path; kept is the parent's region less the head (at the root, free).

        Among kept vertices, two marks those with exactly two neighbours among
        the kept vertices and the ends. It starts at 0 at the root, where every
        count is taken afresh. Counts only fall down the path, so the peeling
        adds a vertex when its count reaches 2 and never has to clear one;
        bits of vertices no longer kept are stale and never read.
        """
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"search budget of {self.budget} node expansions exceeded",
                best_length=self.best,
            )
        rows = self.rows
        head = path[-1]
        depth = len(path)
        # The parent's region was peeled against its own head. Moving the head
        # onto v leaves every count unchanged except next to the old head, so
        # only its neighbours (all of kept, at the root) need a fresh look.
        if depth > 2:
            work = rows[path[-2]] & kept
        elif depth == 2:
            # each cycle closes one way, on an anchor neighbour above path[1];
            # a full memo starts afresh
            work = 0
            self.closers = rows[anchor] >> head + 1 << head + 1
            if len(self.memo) >= DEAD_STATE_CAP:
                self.memo.clear()
        else:
            work = kept
            self.closers = rows[anchor]
            self.memo.clear()  # a state's outcome depends on the anchor
        if work:
            ends = 1 << head | 1 << anchor
            while work:
                low = work & -work
                work ^= low
                row = rows[low.bit_length() - 1]
                count = (row & (kept | ends)).bit_count()
                if count == 2:
                    two |= low
                elif count < 2:
                    kept ^= low
                    work |= row & kept
        floor = self.floor
        closers = self.closers
        region = frontier = rows[head] & kept
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & kept & ~region
            region |= frontier
        if not (region | 1 << head) & closers:
            return
        slack = depth + region.bit_count() - floor
        if slack < 0:
            return
        if depth >= 3 and depth >= floor and closers >> head & 1:
            self._close(path)
        candidates = rows[head] & region
        if not candidates:
            return
        tight = slack == 0 and depth >= 2
        if tight:
            # The rest of the cycle must be a head -> anchor path through all
            # of the region, so a region vertex with two neighbours left uses
            # both edges, and the anchor and the head each take only one. The
            # anchor's is the closing edge, so a forced vertex next to it closes.
            forced = two & region
            if forced:
                near = forced & rows[anchor]
                if near & ~closers or near & (near - 1):
                    return
                onto = forced & candidates
                if onto:
                    if onto & (onto - 1):
                        return
                    candidates = onto
        # children with the fewest onward free neighbours first, ties by id:
        # drastically cuts backtracking on structured instances
        shift = self.shift
        if candidates & (candidates - 1):
            keys = []
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                v = low.bit_length() - 1
                keys.append((rows[v] & free).bit_count() << shift | v)
            keys.sort()
        else:
            keys = [candidates.bit_length() - 1]
        mask = self.mask
        if not tight:
            for key in keys:
                v = key & mask
                path.append(v)
                self._extend(anchor, path, free ^ 1 << v, region ^ 1 << v, two)
                path.pop()
            return
        # A slack-zero child is decided by its kept set, its head and the
        # closers among them (all in region): its subtree closes the same
        # tails, each of length floor, behind any path of this length into the
        # state. That holds for a child searched at this floor that left best
        # where it stood; one entered after a sibling raised floor was cut
        # unsearched.
        memo, found = self.memo, self.found
        seen = (closers & region) << self.g.n + shift
        for key in keys:
            v = key & mask
            kept = region ^ 1 << v
            state = seen | kept << shift | v
            if state in memo:
                start, end = memo[state]
                if start == end:
                    continue
                grown = len(found) + end - start
                # replayed out of search order, so only while no close truncates;
                # a truncated search holds limit cycles already and never replays
                if self.limit is None or grown < self.limit:
                    if grown > self.budget:
                        raise self._kept_over_budget()
                    prefix = (*path, v)
                    cut = len(prefix)
                    found.extend([prefix + c[cut:] for c in found[start:end]])
                    continue
            best, start = self.best, len(found)
            path.append(v)
            self._extend(anchor, path, free ^ 1 << v, kept, two)
            path.pop()
            if self.floor == floor and self.best == best and len(memo) < DEAD_STATE_CAP:
                memo[state] = (start, len(found))

    def _kept_over_budget(self) -> BudgetExceededError:
        """The error for a kept set that would outgrow the budget."""
        return BudgetExceededError(
            f"search budget of {self.budget} kept cycles exceeded",
            best_length=self.best,
        )

    def _close(self, path: list[int]) -> None:
        """Record the cycle closed by path, of length at least floor."""
        if len(path) > self.best:
            self.best = len(path)
            self.found.clear()
            self.memo.clear()
        if len(self.found) >= self.budget:
            raise self._kept_over_budget()
        # anchored at its minimum and closed above path[1], path is canonical
        self.found.append(tuple(path))
        self.truncated = self.limit is not None and len(self.found) >= self.limit
        self.floor = self.best + self.truncated


def _rotation_cycle(g: Graph) -> Optional[CycleEmbedding]:
    """The longest cycle that a rotation-extension walk closes, or None.

    The walk grows a path from vertex 0 for at most 2n steps. A step extends
    the path to the end's unvisited neighbour with the fewest unvisited
    neighbours (ties by id). An end with none is rotated instead: for a
    neighbour path[i] of the end other than its predecessor, reversing
    path[i + 1:] makes path[i + 1] the new end. Of the k such neighbours the
    walk takes the (step mod k)-th by position, a fixed rule that varies from
    step to step and needs no random state. Before each step the end closes
    a cycle with its earliest neighbour on the path; the longest is kept.
    """
    rows = g._rows
    path = [0]
    at = [0] * g.n  # position on the path, read only for path vertices
    on = 1
    best: tuple[int, ...] = ()
    for step in range(2 * g.n):
        end = path[-1]
        # the last of these is the predecessor, at len(path) - 2
        spots = sorted(at[v] for v in iter_bits(rows[end] & on))
        if spots and len(path) - spots[0] > max(len(best), 2):
            best = tuple(path[spots[0]:])
            if len(best) == g.n:
                break
        out = rows[end] & ~on
        if out:
            v = min(iter_bits(out), key=lambda u: (rows[u] & ~on).bit_count())
            at[v] = len(path)
            path.append(v)
            on |= 1 << v
            continue
        if len(spots) < 2:
            break
        i = spots[step % (len(spots) - 1)]
        path[i + 1:] = path[:i:-1]
        for k in range(i + 1, len(path)):
            at[path[k]] = k
    return CycleEmbedding.from_sequence(g, best) if best else None


def longest_cycle_length(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact length c(G) of a longest cycle.

    The rotation walk's cycle, of length h, is checked and certifies c(G) = n
    outright when h = n. Otherwise a length search from floor h + 1 either
    finds c(G) > h or closes nothing, and then c(G) = h. ``budget`` bounds
    that search, and its error carries at least h as the best length.
    """
    return _length_search(g, budget).best


def _length_search(g: Graph, budget: int) -> _Search:
    """The search behind longest_cycle_length, left unrun when the walk is Hamiltonian.

    It keeps one cycle (``limit=1``): the latest it closed, none when the
    walk's floor h + 1 closes nothing.
    """
    search = _Search(g, budget, limit=1)  # rejects a budget below 1, then a forest
    cycle = _rotation_cycle(g)
    h = cycle.length if cycle else 0
    search.best, search.floor = h, h + 1
    return search if h == g.n else search.run()


def enumerate_longest_cycles(
    g: Graph, limit: Optional[int] = None, budget: int = DEFAULT_BUDGET
) -> CycleSet:
    """All longest cycles, deduplicated up to rotation and reflection.

    One pass finds c(G) and its cycles together; ``budget`` bounds that pass's
    node expansions and the cycles it keeps at once.
    """
    search = _Search(g, budget, limit=limit).run()
    cycles = tuple(sorted(search.found))
    return CycleSet(length=search.best, sequences=cycles, n=g.n, truncated=search.truncated)


def min_pairwise_intersection(cs: CycleSet) -> tuple[int, tuple[CycleEmbedding, CycleEmbedding]]:
    """Minimum |V(X) ∩ V(Y)| over unordered cycle pairs, with one witnessing pair.

    Cycles on identical vertex sets intersect in that whole set, so the scan
    runs over distinct vertex masks (``cs.masks``), in order of first
    appearance, and counts each intersection with ``bit_count``;
    Hamiltonian-rich graphs stay cheap. The witness is the first pair in that
    order to reach the minimum: two distinct sets, or else the earliest cycle
    whose set repeats, with the first cycle on that set.

    Two cycles of length c on n vertices share at least 2c − n of them, so
    the scan stops at the first pair sharing max(2c − n, 0): no later pair
    shares fewer, and the value and witness are the full scan's. At c = n
    that is the first repeated set, since every cycle covers V.
    """
    if len(cs) < 2:
        raise ValueError("need two cycles")
    floor = max(2 * cs.length - cs.n, 0)  # the pigeonhole minimum
    first: dict[int, int] = {}  # vertex mask -> index of its first cycle
    best: Optional[int] = None
    witness: Optional[tuple[int, int]] = None
    for i, mask in enumerate(cs.masks):
        j = first.setdefault(mask, i)
        if j != i and witness is None:
            best, witness = mask.bit_count(), (j, i)
            if best == floor:
                break
    distinct = list(first.items())
    for a, (amask, i) in enumerate(distinct):
        if best == floor:
            break
        for bmask, j in distinct[a + 1:]:
            size = (amask & bmask).bit_count()
            if best is None or size < best:
                best, witness = size, (i, j)
                if size == floor:
                    break
    assert best is not None and witness is not None
    i, j = witness
    return best, (CycleEmbedding(cs.sequences[i]), CycleEmbedding(cs.sequences[j]))


def is_t_transversal(g: Graph, cs: CycleSet, a: Iterable[int], t: int) -> bool:
    """True iff every longest cycle of g, all listed in cs, meets a in at least t vertices.

    t must be at least 1, cs must be complete and a must lie in V(g), checked
    in that order. A cycle of length c misses only n − c vertices, so it
    meets a in at least |a| − (n − c) of them: when that reaches t the answer
    is True with no cycle read, and otherwise every cycle's mask is scanned.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if cs.truncated:
        raise ValueError("truncated cycle set does not list every longest cycle")
    vs = check_vertex_set(g, a)
    if len(vs) - (g.n - cs.length) >= t:
        return True
    amask = mask_of(vs)
    return all((amask & cmask).bit_count() >= t for cmask in cs.masks)
