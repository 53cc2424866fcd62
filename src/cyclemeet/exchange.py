"""Exchange arguments: turning forbidden path configurations into longer cycles.

Certificates pair two cycles that jointly cover both original cycles' edges
with strictly larger total length. One restitching search, ``_restitch``,
builds every one of them: the endpoints of the connecting paths cut X and Y
into arcs, and an exhaustive search splits the arcs, each used once, and the
paths, each used twice, into two vertex-simple cycles. It closes Prop. 2.2
(two paths on one segment pair), Lemma 3.2 (a type-(0,0) 4-cycle of the
auxiliary graph) and Lemma 3.3 (two crossing type-(1,0) 4-cycles). Its pair
must have surplus 2·Σ|P| and pass ``certificate_is_sound`` against the host
graph; a failure is an internal error, never a silent skip. The constructors
check their hypotheses and order the pair: ``q1`` of Prop. 2.2 beats the
cycle it modifies, and ``q1`` of Lemma 3.2 keeps the X-stretch inside X_i.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .auxgraph import (
    AuxGraph,
    FourCycleType,
    SameSegmentPairError,
    classify_four_cycle,
    cut_at,
    decompose,
    end_orders,
    is_crossing,
    pair_aux,
)
from .cycles import DEFAULT_BUDGET, BudgetExceededError, CycleEmbedding
from .graphs import Graph


@dataclass(frozen=True)
class WinningCertificate:
    """Two cycles covering E(X) ∪ E(Y) with |q1| + |q2| > |X| + |Y|.

    Constructors only return certificates whose invariants were machine
    checked by ``certificate_is_sound``.
    """

    q1: CycleEmbedding
    q2: CycleEmbedding
    origin: str  # prop22 | type00 | lemma33
    surplus: int
    case: Optional[tuple[int, int]] = None


def certificate_is_sound(
    g: Graph, x: CycleEmbedding, y: CycleEmbedding, cert: WinningCertificate
) -> bool:
    """Independent validator for both certificate invariants."""
    if not (cert.q1.is_valid(g) and cert.q2.is_valid(g)):
        return False
    if not (cert.q1.edge_set() | cert.q2.edge_set()) >= (x.edge_set() | y.edge_set()):
        return False
    return cert.q1.length + cert.q2.length > x.length + y.length


def _holding_first(
    cert: WinningCertificate, a: int, b: int
) -> tuple[CycleEmbedding, CycleEmbedding]:
    """The certificate's two cycles, the one holding the edge ab first."""
    if (min(a, b), max(a, b)) in cert.q1.edge_set():
        return cert.q1, cert.q2
    return cert.q2, cert.q1


def _check_clean_interior(path: Sequence[int], x: CycleEmbedding, y: CycleEmbedding) -> None:
    # interiors must avoid both cycles entirely or the restitched walks revisit
    # shared vertices and stop being simple cycles
    forbidden = x.vertex_set() | y.vertex_set()
    touched = forbidden.intersection(path[1:-1])
    if touched:
        raise ValueError(f"path interior touches the cycles at {sorted(touched)}")


def _orient_path(
    path: Sequence[int], x: CycleEmbedding, y: CycleEmbedding, shared: frozenset[int]
) -> tuple[int, ...]:
    """Return the path running from its X-side endpoint to its Y-side endpoint."""
    xs = x.vertex_set() - shared
    ys = y.vertex_set() - shared
    if path[0] in xs and path[-1] in ys:
        return tuple(path)
    if path[0] in ys and path[-1] in xs:
        return tuple(reversed(path))
    raise ValueError("path endpoints are not on the cycle remainders")


def prop22_certificate(
    g: Graph,
    x: CycleEmbedding,
    y: CycleEmbedding,
    path1: Sequence[int],
    path2: Sequence[int],
) -> WinningCertificate:
    """Absorb a same-segment-pair path pair into a strictly longer cycle.

    Of the restitched pair, q_x replaces the X-stretch between the path
    endpoints by the detour through Y; it is the cycle holding the X-edge from
    the earlier endpoint u to u's predecessor. q_y does the same on Y. ``q1``
    is q_x unless the X-stretch is longer than the Y-stretch, so ``q1``
    replaces the shorter stretch and beats the cycle it modifies (both, when
    |x| = |y|).
    """
    dec = decompose(g, x, y)
    shared = dec.shared()
    p1 = _orient_path(path1, x, y, shared)
    p2 = _orient_path(path2, x, y, shared)
    if set(p1) & set(p2):
        raise ValueError("paths are not disjoint")
    for p in (p1, p2):
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"missing edge ({a},{b})")
        _check_clean_interior(p, x, y)
    i1, posu1 = dec.segment_of(p1[0])
    i2, posu2 = dec.segment_of(p2[0])
    j1, posv1 = dec.segment_of(p1[-1])
    j2, posv2 = dec.segment_of(p2[-1])
    if i1 != i2 or j1 != j2:
        raise ValueError("paths do not land on one segment pair")
    cert = _restitch(g, x, y, (p1, p2), "prop22")
    # q_x replaces the X-stretch between the endpoints by the detour through
    # Y, so it keeps the X-edge from the earlier endpoint to its predecessor
    u = p1[0] if posu1 < posu2 else p2[0]
    q_x, q_y = _holding_first(cert, u, x.vertices[x.vertices.index(u) - 1])
    if abs(posu1 - posu2) > abs(posv1 - posv2):
        q1, q2, modified = q_y, q_x, y
    else:
        q1, q2, modified = q_x, q_y, x
    if q1.length <= modified.length:
        raise RuntimeError("exchange failed to lengthen the cycle")
    return replace(cert, q1=q1, q2=q2)


def type00_certificate(
    g: Graph,
    x: CycleEmbedding,
    y: CycleEmbedding,
    f: AuxGraph,
    fourcycle: tuple[int, int, int, int],
    budget: int = DEFAULT_BUDGET,
) -> WinningCertificate:
    """Winning certificate from a type-(0,0) 4-cycle of the auxiliary graph.

    The restitching search, of at most ``budget`` nodes, uses each of the
    four paths once per cycle, so the surplus is twice the total path
    length. ``q1`` is the cycle that keeps the X-stretch between the two
    path endpoints on X_i.
    """
    i, k, j, l = fourcycle
    kind = classify_four_cycle(f, i, j, k, l)
    if kind != FourCycleType(0, 0):
        raise ValueError(f"wrong type: {tuple(kind)} is not (0,0)")
    paths = [f.witness[key] for key in ((i, k), (i, l), (j, k), (j, l))]
    for p in paths:
        _check_clean_interior(p, x, y)
    cert = _restitch(g, x, y, paths, "type00", budget=budget)
    # q1 keeps the X-stretch between the two endpoints on X_i, so it holds
    # the X-edge from the earlier one to its successor
    u = paths[0][0] if end_orders(f, i, k, j, l)[0] else paths[1][0]
    q1, q2 = _holding_first(cert, u, x.vertices[(x.vertices.index(u) + 1) % x.length])
    return replace(cert, q1=q1, q2=q2)


def _decompose_into_two_cycles(blocks: list[tuple[tuple[int, ...], int]],
                               budget: int) -> Optional[tuple[list[int], list[int]]]:
    """Partition the blocks into exactly two vertex-simple closed walks.

    A block is a (seq, twin) pair: its vertex sequence, whose ends are
    seq[0] and seq[-1], and the index of the block it is a second copy of,
    which it must follow, or -1; its id is its index in the list.
    Exhaustive DFS with deterministic ordering; each block is used exactly
    once, trail simplicity is enforced on host-graph vertices as the trail
    grows. The DFS expands at most ``budget`` nodes and then raises
    ``BudgetExceededError``, as the cycle search does; a budget below 1 is
    a ValueError before it starts.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    incidence: dict[int, list[int]] = {}  # each end's blocks, ascending as they are added
    for bid, (seq, _) in enumerate(blocks):
        incidence.setdefault(seq[0], []).append(bid)
        incidence.setdefault(seq[-1], []).append(bid)
    all_mask = (1 << len(blocks)) - 1
    nodes = 0

    def rec(used: int, cycles: list[list[int]], trail):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search budget of {budget} node expansions exceeded")
        if trail is None:
            if used == all_mask:
                return cycles if len(cycles) == 2 else None
            if len(cycles) == 2:
                return None
            free = ~used & all_mask
            bid = (free & -free).bit_length() - 1
            seq = blocks[bid][0]
            return rec(used | 1 << bid, cycles, (seq[0], seq[-1], list(seq), set(seq)))
        start, head, seq, vset = trail
        for bid in incidence.get(head, ()):
            if used >> bid & 1:
                continue
            block, twin = blocks[bid]
            if twin >= 0 and not used >> twin & 1:
                continue  # a path's second copy follows its first
            walk = block if block[0] == head else block[::-1]
            nxt = walk[-1]
            interior = set(walk[1:-1])
            if interior & vset:
                continue
            if nxt == start:
                closed = seq + list(walk[1:-1])
                res = rec(used | 1 << bid, cycles + [closed], None)
                if res is not None:
                    return res
            elif nxt not in vset:
                res = rec(
                    used | 1 << bid,
                    cycles,
                    (start, nxt, seq + list(walk[1:]), vset | interior | {nxt}),
                )
                if res is not None:
                    return res
        return None

    return rec(0, [], None)


def _restitch(
    g: Graph,
    x: CycleEmbedding,
    y: CycleEmbedding,
    paths: Sequence[Sequence[int]],
    origin: str,
    case: Optional[tuple[int, int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> WinningCertificate:
    """The certificate that uses every arc of X and Y once and every path twice.

    ``paths`` run from their X end to their Y end. Their endpoints cut X and Y
    into arcs, each a ``cut_at`` run with the marks at its ends; the
    exhaustive search, of at most ``budget`` nodes, splits the arcs plus two
    copies of each path into two vertex-simple cycles, whose surplus must be
    2·Σ|P|.
    """
    blocks: list[tuple[tuple[int, ...], int]] = []
    for cyc, ends in ((x, {p[0] for p in paths}), (y, {p[-1] for p in paths})):
        marks, runs = cut_at(cyc.vertices, ends)
        blocks += (((marks[t], *run, marks[(t + 1) % len(marks)]), -1)
                   for t, run in enumerate(runs))
    for p in paths:
        blocks += ((tuple(p), -1), (tuple(p), len(blocks)))

    found = _decompose_into_two_cycles(blocks, budget)
    if found is None:
        raise RuntimeError(f"restitching search found no {origin} certificate")
    q1 = CycleEmbedding.from_sequence(g, found[0])
    q2 = CycleEmbedding.from_sequence(g, found[1])
    surplus = q1.length + q2.length - x.length - y.length
    expected = 2 * sum(len(p) - 1 for p in paths)
    if surplus != expected:
        raise RuntimeError(f"surplus {surplus} != 2*sum|P| = {expected}")
    cert = WinningCertificate(q1=q1, q2=q2, origin=origin, surplus=surplus, case=case)
    if not certificate_is_sound(g, x, y, cert):
        raise RuntimeError("exchange produced unsound certificate")
    return cert


def lemma33_certificate(
    g: Graph,
    x: CycleEmbedding,
    y: CycleEmbedding,
    f: AuxGraph,
    c1: tuple[int, int, int, int],
    c2: tuple[int, int, int, int],
    budget: int = DEFAULT_BUDGET,
) -> Optional[WinningCertificate]:
    """Certificate from two type-(1,0) 4-cycles with crossing X-pairs and
    disjoint non-crossing Y-pairs.

    Returns None when the configuration does not match that hypothesis. The
    restitching search, of at most ``budget`` nodes, handles all four
    endpoint-ordering cases of the eight paths; the pair it finds is
    machine-verified, closing the case analysis computationally. The
    certificate's ``case`` says which of the four the second 4-cycle
    realizes, after orienting both cycles by the first: whether the two
    agree in their end orders on X_i, and on Y_k.
    """
    i1, k1, j1, l1 = c1
    i2, k2, j2, l2 = c2
    types = f.four_cycle_types
    if types.get(c1) != FourCycleType(1, 0) or types.get(c2) != FourCycleType(1, 0):
        return None
    if not is_crossing((i1, j1), (i2, j2)):
        return None
    if {k1, l1} & {k2, l2}:
        return None
    if is_crossing((k1, l1), (k2, l2)):
        return None
    keys = [(i1, k1), (i1, l1), (j1, k1), (j1, l1), (i2, k2), (i2, l2), (j2, k2), (j2, l2)]
    paths = [f.witness[key] for key in keys]
    try:
        for p in paths:
            _check_clean_interior(p, x, y)
    except ValueError:
        return None
    x1, _, y1, _ = end_orders(f, *c1)
    x2, _, y2, _ = end_orders(f, *c2)
    return _restitch(g, x, y, paths, "lemma33", case=(int(x1 == x2), int(y1 == y2)), budget=budget)


def improve_by_exchange(
    g: Graph, x: CycleEmbedding, y: CycleEmbedding
) -> Optional[tuple[CycleEmbedding, CycleEmbedding]]:
    """Try every implemented exchange on a cycle pair.

    Returns an improved pair covering the original edges, or None. On a pair
    of genuinely longest cycles this must always return None; a success there
    is a correctness bug in the searcher or in the exchanges. The aux graph
    comes from ``pair_aux`` on the pair's ``xy_separator`` flow; a caller that
    already holds it calls ``improve_by_four_cycles``.
    """
    try:
        f = pair_aux(g, x, y)
    except SameSegmentPairError as err:
        cert = prop22_certificate(g, x, y, err.path1, err.path2)
        return cert.q1, cert.q2
    return None if f is None else improve_by_four_cycles(g, x, y, f)


def improve_by_four_cycles(
    g: Graph, x: CycleEmbedding, y: CycleEmbedding, f: AuxGraph, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[CycleEmbedding, CycleEmbedding]]:
    """The type-(0,0) and Lemma 3.3 exchanges on the pair's auxiliary graph ``f``.

    Returns an improved pair covering the original edges, or None. Each
    restitching search expands at most ``budget`` nodes, and then
    ``BudgetExceededError`` is raised.
    """
    type10: list[tuple[int, int, int, int]] = []
    for fourcycle, kind in f.four_cycle_types.items():
        if kind == FourCycleType(0, 0):
            cert = type00_certificate(g, x, y, f, fourcycle, budget)
            return cert.q1, cert.q2
        if kind == FourCycleType(1, 0):
            type10.append(fourcycle)
    for a in range(len(type10)):
        for b in range(a + 1, len(type10)):
            cert = lemma33_certificate(g, x, y, f, type10[a], type10[b], budget)
            if cert is not None:
                return cert.q1, cert.q2
    return None
