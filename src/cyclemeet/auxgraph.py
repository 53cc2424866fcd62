"""Segment decompositions of a cycle pair and their auxiliary bipartite graph.

Two cycles X, Y meeting in m vertices decompose into m (possibly empty)
segments each; a family of disjoint paths between the leftover sides induces
a bipartite graph on segment labels. The 4-cycle type census, crossing
structure, and supersaturation counts of that graph drive the separator
bound and the exchange certificates. The graph is kept as its map from
segment pair to path, and each count is derived from that map once.

Segment labels are 1-based (x_1..x_m, y_1..y_m) throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Container, KeysView, NamedTuple, Optional, Sequence

from .cycles import CycleEmbedding
from .flow import PathFamily, SeparatorReport, edge_bound_holds, xy_separator
from .graphs import Graph, iter_bits


class SameSegmentPairError(ValueError):
    """Two disjoint family paths land on one (X_i, Y_j) segment pair.

    For genuinely longest cycles this cannot happen; when it does, the two
    offending paths are exactly what the exchange module needs to build a
    longer cycle, so they ride along on the error.
    """

    def __init__(self, pair: tuple[int, int], path1: tuple[int, ...], path2: tuple[int, ...]):
        super().__init__(f"Prop. 2.2 violation: two paths on segment pair {pair}")
        self.pair = pair
        self.path1 = path1
        self.path2 = path2


@dataclass(frozen=True)
class SegmentDecomposition:
    """Shared vertices of two cycles plus the ordered segments between them.

    x_segments[i-1] is the (possibly empty) run of X-vertices strictly
    between the i-th and (i+1)-th shared vertex along X's stored
    orientation, starting at the first shared vertex that orientation meets;
    y_segments likewise along Y. ``segment_of`` places a vertex of either
    remainder, which is how a path's ends are read.
    """

    m: int
    m_order_x: tuple[int, ...]
    m_order_y: tuple[int, ...]
    x_segments: tuple[tuple[int, ...], ...]
    y_segments: tuple[tuple[int, ...], ...]

    def shared(self) -> frozenset[int]:
        return frozenset(self.m_order_x)

    def segment_of(self, v: int) -> tuple[int, int]:
        """(1-based segment index, position inside the segment) of a remainder vertex.

        The X and Y remainders are disjoint, so one lookup serves both sides;
        a vertex of neither raises KeyError.
        """
        for segments in (self.x_segments, self.y_segments):
            for idx, seg in enumerate(segments, 1):
                if v in seg:
                    return idx, seg.index(v)
        raise KeyError(v)


def cut_at(seq: Sequence[int],
           marks: Container[int]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The marks on a cyclic sequence, and the runs of other vertices between them.

    The marks come in the sequence's order, from the first one it meets;
    ``runs[t]`` is the (possibly empty) run strictly between ``marks[t]``
    and the next mark, the last run wrapping round to the first mark. One
    pass over the sequence; it must hold at least one mark.
    """
    met: list[int] = []
    runs: list[tuple[int, ...]] = []
    run: list[int] = []
    for v in seq:
        if v in marks:
            met.append(v)
            runs.append(tuple(run))
            run = []
        else:
            run.append(v)
    lead = runs.pop(0)  # the run before the first mark ends the last one
    runs.append(tuple(run) + lead)
    return tuple(met), tuple(runs)


def decompose(g: Graph, x: CycleEmbedding, y: CycleEmbedding) -> SegmentDecomposition:
    """Split both cycles at their shared vertices with ``cut_at``, following stored orientations."""
    if not x.is_valid(g) or not y.is_valid(g):
        raise ValueError("cycles do not live in the host graph")
    shared = x.vertex_set() & y.vertex_set()
    if not shared:
        raise ValueError("empty intersection")
    mx, xsegs = cut_at(x.vertices, shared)
    my, ysegs = cut_at(y.vertices, shared)
    return SegmentDecomposition(
        m=len(shared), m_order_x=mx, m_order_y=my, x_segments=xsegs, y_segments=ysegs
    )


class FourCycleType(NamedTuple):
    """Consistency pattern of path-endpoint orders: alpha on X, beta on Y."""

    alpha: int
    beta: int


@dataclass(frozen=True)
class AuxGraph:
    """Bipartite graph on segment labels, kept as its path map.

    ``witness[(i, j)]`` is the family's (X_i, Y_j)-path, from its X end to its
    Y end; the edges are the map's keys, and a path's ends are its first and
    last vertex. Simple by construction: a duplicate is a mathematical event
    and raises SameSegmentPairError instead. Every count on the graph is
    derived from the map once and kept: the common neighbourhoods of the
    X-side pairs, and the type of each 4-cycle.
    """

    m: int
    witness: dict[tuple[int, int], tuple[int, ...]]
    decomposition: SegmentDecomposition

    @property
    def edges(self) -> KeysView[tuple[int, int]]:
        return self.witness.keys()

    def edge_count(self) -> int:
        return len(self.witness)

    @cached_property
    def common_neighbors(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """N(x_i) ∩ N(x_j), ascending, for every 1 <= i < j <= m."""
        rows = [0] * (self.m + 1)
        for i, k in self.witness:
            rows[i] |= 1 << k
        return {
            (i, j): tuple(iter_bits(rows[i] & rows[j]))
            for i in range(1, self.m + 1)
            for j in range(i + 1, self.m + 1)
        }

    @cached_property
    def four_cycle_types(self) -> dict[tuple[int, int, int, int], FourCycleType]:
        """The type of every 4-cycle x_i y_k x_j y_l, keyed (i, k, j, l) with i<j and k<l."""
        return {
            (i, k, j, l): _four_cycle_type(self, i, k, j, l)
            for (i, j), common in self.common_neighbors.items()
            for k, l in combinations(common, 2)
        }

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "edges": sorted(list(e) for e in self.witness),
            "endpoints": {f"{i},{j}": [path[0], path[-1]]
                          for (i, j), path in sorted(self.witness.items())},
        }


def build_aux(g: Graph, x: CycleEmbedding, y: CycleEmbedding, p: PathFamily) -> AuxGraph:
    """Construct the auxiliary graph of a path family between two cycles.

    The family is validated against g first (``PathFamily.validate``), then
    ``_aux_of`` checks the cycles and the family's terminals.
    """
    p.validate(g)
    return _aux_of(g, x, y, p)


def _aux_of(g: Graph, x: CycleEmbedding, y: CycleEmbedding, family: PathFamily) -> AuxGraph:
    """The auxiliary graph of a family of paths from the X to the Y remainder.

    ``decompose`` checks the cycles. A family whose terminals are not the two
    remainders raises ValueError, and two paths on one segment pair raise
    SameSegmentPairError. The paths themselves are taken as valid.
    """
    dec = decompose(g, x, y)
    shared = dec.shared()
    if family.source_set != x.vertex_set() - shared or family.target_set != y.vertex_set() - shared:
        raise ValueError("family terminals are not the cycle remainders")
    witness: dict[tuple[int, int], tuple[int, ...]] = {}
    for path in family.paths:
        pair = (dec.segment_of(path[0])[0], dec.segment_of(path[-1])[0])
        if pair in witness:
            raise SameSegmentPairError(pair, witness[pair], path)
        witness[pair] = path
    return AuxGraph(m=dec.m, witness=witness, decomposition=dec)


def pair_aux(g: Graph, x: CycleEmbedding, y: CycleEmbedding,
             rep: Optional[SeparatorReport] = None) -> Optional[AuxGraph]:
    """The auxiliary graph of the pair's separator family: disjoint (X-M, Y-M)-paths avoiding M.

    ``rep`` is the pair's ``xy_separator`` report, found here when not
    given; its flow in G - M is the only one run, and its witness is the
    family. None when the cycles share no vertex or either remainder is
    empty. ``min_vertex_cut`` has validated the family, so ``_aux_of`` checks
    only the cycles and the terminals: a report of another pair raises
    ValueError, as in ``build_aux``, and two family paths on one segment pair
    raise SameSegmentPairError.
    """
    if rep is None:
        rep = xy_separator(g, x, y)
    family = rep.witness
    if not (rep.m and family.source_set and family.target_set):
        return None
    return _aux_of(g, x, y, family)


def end_orders(f: AuxGraph, i: int, k: int, j: int, l: int) -> tuple[bool, bool, bool, bool]:
    """The end orders of the 4-cycle x_i y_k x_j y_l's paths on X_i, X_j, Y_k and Y_l.

    Each is True when, along its cycle's stored orientation, the end of the
    path to the lower-indexed segment comes first: on X_i, the (i, k)-path's
    X end before the (i, l)-path's; on Y_k, the (i, k)-path's Y end before
    the (j, k)-path's; X_j and Y_l alike.
    """
    w = f.witness
    pos = f.decomposition.segment_of
    x_i = pos(w[(i, k)][0])[1] < pos(w[(i, l)][0])[1]
    x_j = pos(w[(j, k)][0])[1] < pos(w[(j, l)][0])[1]
    y_k = pos(w[(i, k)][-1])[1] < pos(w[(j, k)][-1])[1]
    y_l = pos(w[(i, l)][-1])[1] < pos(w[(j, l)][-1])[1]
    return x_i, x_j, y_k, y_l


def _four_cycle_type(f: AuxGraph, i: int, k: int, j: int, l: int) -> FourCycleType:
    """Type of the 4-cycle x_i y_k x_j y_l: whether its end orders differ on X, and on Y."""
    x_i, x_j, y_k, y_l = end_orders(f, i, k, j, l)
    return FourCycleType(int(x_i != x_j), int(y_k != y_l))


def classify_four_cycle(f: AuxGraph, i: int, j: int, k: int, l: int) -> FourCycleType:
    """Type (alpha, beta) of the 4-cycle x_i y_k x_j y_l, with i<j and k<l.

    alpha is 0 when the order of the two path endpoints on X_i agrees with
    the order on X_j; beta compares the endpoint orders on Y_k and Y_l.
    Both are invariant under reversing either cycle's orientation. The type
    is looked up in ``f.four_cycle_types``, which types each 4-cycle once.
    """
    if not (i < j and k < l):
        raise ValueError("indices must satisfy i<j and k<l")
    kind = f.four_cycle_types.get((i, k, j, l))
    if kind is None:
        raise ValueError("not a 4-cycle")
    return kind


def type_census(f: AuxGraph) -> dict[FourCycleType, int]:
    census = {FourCycleType(a, b): 0 for a in (0, 1) for b in (0, 1)}
    for kind in f.four_cycle_types.values():
        census[kind] += 1
    return census


L_SET_THRESHOLD = 7


def l_set(f: AuxGraph) -> set[tuple[int, int]]:
    """Index pairs whose segments have at least 7 common neighbors in F."""
    return {pair for pair, common in f.common_neighbors.items()
            if len(common) >= L_SET_THRESHOLD}


def is_crossing(p1: tuple[int, int], p2: tuple[int, int]) -> bool:
    """True iff the four indices are distinct and [i1,j1] holds exactly one of i2,j2."""
    i1, j1 = p1
    i2, j2 = p2
    if not (i1 < j1 and i2 < j2):
        raise ValueError("pairs must be increasing")
    if len({i1, j1, i2, j2}) != 4:
        return False
    inside = (i1 <= i2 <= j1) + (i1 <= j2 <= j1)
    return inside == 1


def pairwise_noncrossing(pairs) -> bool:
    pairs = list(pairs)
    return all(
        not is_crossing(pairs[a], pairs[b])
        for a in range(len(pairs))
        for b in range(a + 1, len(pairs))
    )


@dataclass(frozen=True)
class SupersaturationReport:
    """Counting diagnostics tying e(F) to the common-neighbor mass and L-set.

    Lower bounds are the convexity estimates valid whenever e(F) >= m; the
    edge bound is the sqrt(10)*m^1.5 + m/2 ceiling on e(F). The five
    inequality fields are None when e(F) < m; the flags are evaluated in
    exact arithmetic. ``to_json_dict`` writes every field, the two bounds as
    floats, plus the edge bound and a note on a skipped chain.
    """

    m: int
    edge_count: int
    assumption_met: bool
    sum_common: int
    l_size: int
    sum_lower_bound: Optional[Fraction] = None
    l_lower_bound: Optional[Fraction] = None
    sum_ok: Optional[bool] = None
    l_ok: Optional[bool] = None
    edge_bound_ok: Optional[bool] = None

    def to_json_dict(self) -> dict:
        out = dict(vars(self))
        for key in ("sum_lower_bound", "l_lower_bound"):
            out[key] = None if out[key] is None else float(out[key])
        out["edge_bound"] = math.sqrt(10) * self.m**1.5 + self.m / 2
        out["note"] = (None if self.assumption_met
                       else "assumption e(F) >= m not met; inequalities skipped")
        return out


def supersaturation_report(f: AuxGraph) -> SupersaturationReport:
    """Evaluate the convexity chain on one auxiliary graph.

    The five shared fields are always filled; the two bounds and the three
    flags only when e(F) >= m, the chain's assumption. The flags compare
    exactly: integers against ``Fraction`` bounds, and ``edge_bound_holds``.
    """
    m = f.m
    ecount = f.edge_count()
    total = sum(map(len, f.common_neighbors.values()))
    lsize = len(l_set(f))
    rep = SupersaturationReport(m, ecount, ecount >= m, total, lsize)
    if ecount < m:
        return rep
    sum_lb = Fraction(ecount * (ecount - m), 2 * m)
    l_lb = Fraction(ecount * (ecount - m), 2 * m * m) - 3 * (m - 1)
    return replace(rep, sum_lower_bound=sum_lb, l_lower_bound=l_lb, sum_ok=total >= sum_lb,
                   l_ok=lsize >= l_lb, edge_bound_ok=edge_bound_holds(ecount, m))
