"""Decomposition of a polygon boundary into maximal x-monotone segments.

Each segment is a boundary subpath whose non-vertical edges cover pairwise
disjoint half-open x-intervals. Segments alternate between running above and
below the interior; the `parity` flag is 1 when the interior lies below the
segment and 0 when it lies above.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from operator import eq, gt, lt, ne, sub
from typing import List, Optional, Sequence, Tuple

from .errors import OutOfDomain, ParityInconsistency
from .geometry import (
    Coord,
    Edge,
    Point,
    Polygon,
    _normalize,
)


@dataclass(eq=False, slots=True)
class MaxSegment:
    """Maximal x-monotone boundary segment of one polygon.

    xs and ys are the coordinate columns of the segment's vertices, ordered
    left to right, so xs is non-decreasing; vertex k and vertex k + 1 bound
    its edge k. Its first and last edges are not vertical. parity is
    assigned by assign_parities and is None before that.

    edges, span_edges, min_v, max_v and edge_at give the same path as Edges
    and Points: edges in left-to-right order, each non-vertical one oriented
    left to right; span_edges only the non-vertical ones, whose half-open
    x-intervals partition [min_v.x, max_v.x). The edge views are built on
    first access and then kept.
    """

    polygon_id: str
    xs: Tuple[Coord, ...]
    ys: Tuple[Coord, ...]
    area: Coord
    parity: Optional[int] = None
    _edges: Optional[Tuple[Edge, ...]] = field(
        default=None, init=False, repr=False
    )
    _span_edges: Optional[Tuple[Edge, ...]] = field(
        default=None, init=False, repr=False
    )

    @property
    def min_v(self) -> Point:
        return Point(self.xs[0], self.ys[0])

    @property
    def max_v(self) -> Point:
        return Point(self.xs[-1], self.ys[-1])

    @property
    def edges(self) -> Tuple[Edge, ...]:
        e = self._edges
        if e is None:
            v = tuple(map(Point, self.xs, self.ys))
            e = self._edges = tuple(map(Edge, v, v[1:]))
        return e

    @property
    def span_edges(self) -> Tuple[Edge, ...]:
        e = self._span_edges
        if e is None:
            e = self.edges
            # xs is non-decreasing: a repeated x means a vertical edge.
            if len(set(self.xs)) < len(self.xs):
                e = tuple(edge for edge in e if edge.a.x != edge.b.x)
            self._span_edges = e
        return e

    def edge_at(self, xi) -> Edge:
        """Non-vertical edge associated with xi.

        For min_v.x <= xi < max_v.x this is the unique span edge whose
        half-open x-interval contains xi; at xi == max_v.x it is the last
        span edge.
        """
        xs = self.xs
        if xi < xs[0] or xi > xs[-1]:
            raise OutOfDomain(
                f"x={xi} outside [{xs[0]}, {xs[-1]}] "
                f"of a segment of polygon {self.polygon_id!r}"
            )
        # The last vertex at or left of xi starts a non-vertical edge.
        k = min(bisect_right(xs, xi), len(xs) - 1) - 1
        return self.edges[k]


@dataclass(slots=True)
class SegmentDecomposition:
    """All maximal segments of one polygon, in boundary traversal order.

    connector_runs[i] holds the (possibly empty) run of vertical edges
    between segments[i] and segments[(i + 1) % len(segments)]; it is a view
    of the polygon's edges, built on access.
    """

    polygon: Polygon
    segments: Tuple[MaxSegment, ...]
    # Index in the polygon's cycle of each segment's first vertex along the
    # traversal.
    _starts: List[int] = field(repr=False)

    @property
    def polygon_id(self) -> str:
        return self.polygon.id

    @property
    def connector_runs(self) -> Tuple[Tuple[Edge, ...], ...]:
        edges = self.polygon.edges
        n = len(edges)
        runs = []
        starts = self._starts
        for i, seg in enumerate(self.segments):
            end = starts[i] + len(seg.xs) - 1
            gap = (starts[(i + 1) % len(starts)] - end) % n
            runs.append(tuple(edges[(end + j) % n] for j in range(gap)))
        return tuple(runs)


def y_at(segment: MaxSegment, xi) -> Coord:
    """Height of the segment at abscissa xi (closed domain)."""
    e = segment.edge_at(xi)
    num = e.a.y * (e.b.x - e.a.x) + (xi - e.a.x) * (e.b.y - e.a.y)
    den = e.b.x - e.a.x
    if isinstance(num, int) and isinstance(den, int):
        return _normalize(Fraction(num, den))
    return _normalize(Fraction(num) / Fraction(den))


def decompose(polygon: Polygon) -> SegmentDecomposition:
    """Split the boundary into maximal x-monotone segments.

    Runs in O(n) on the polygon's coordinate columns. Vertical edges between
    two same-direction runs are absorbed into the segment; vertical edges
    between opposite-direction runs become connector runs and belong to no
    segment.
    """
    xs, ys = polygon.xs, polygon.ys
    n = len(xs)
    next_xs = xs[1:] + xs[:1]
    # x-direction of edge i: 1 rightwards, -1 leftwards, 0 vertical.
    dirs = list(map(sub, map(lt, xs, next_xs), map(gt, xs, next_xs)))
    nonvert = list(compress(range(n), dirs))
    # A closed cycle cannot consist of vertical edges only (all x equal
    # would mean all vertices collinear, rejected at construction).
    assert nonvert, "polygon with non-vertical edges expected"
    turns = list(compress(dirs, dirs))
    # Position, among the non-vertical edges, of the first edge of each
    # maximal cyclic run of equal x-direction. Each run yields one maximal
    # segment.
    run_starts = list(
        compress(range(len(turns)), map(ne, turns, turns[-1:] + turns[:-1]))
    )
    if not run_starts:
        # All non-vertical edges share one direction; impossible for a
        # closed simple cycle, but guard against corrupt input.
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: boundary never reverses x-direction"
        )

    segments = []
    starts = []
    area = polygon.area
    pid = polygon.id
    for r, k in enumerate(run_starts):
        first = nonvert[k]
        # Python's index -1 wraps the last run round to the first.
        last = nonvert[run_starts[(r + 1) % len(run_starts)] - 1]
        # Vertices first .. last + 1 along the cycle.
        stop = first + (last - first) % n + 2
        if stop <= n:
            sx, sy = xs[first:stop], ys[first:stop]
        else:
            sx = xs[first:] + xs[:stop - n]
            sy = ys[first:] + ys[:stop - n]
        if turns[k] < 0:
            sx, sy = sx[::-1], sy[::-1]
        segments.append(MaxSegment(pid, sx, sy, area))
        starts.append(first)
    return SegmentDecomposition(polygon, tuple(segments), starts)


# --- Three independent checkers for the x-monotonicity property ------------
#
# A boundary subpath qualifies as (part of) an x-monotone segment exactly
# when its non-vertical edges cover pairwise disjoint half-open x-intervals.
# The three functions below decide that predicate in unrelated ways so they
# can be cross-validated against each other.


def satisfies_property_O(edges: Sequence[Edge]) -> bool:
    """Disjointness of the half-open x-intervals of non-vertical edges."""
    spans = sorted(
        (min(e.a.x, e.b.x), max(e.a.x, e.b.x)) for e in edges if not e.is_vertical
    )
    for i in range(1, len(spans)):
        if spans[i][0] < spans[i - 1][1]:
            return False
    return True


def check_terminal_monotone(edges: Sequence[Edge]) -> bool:
    """Equivalent check via extreme vertices and path monotonicity.

    The path's x-extremes must occur at its terminal vertices, and from a
    minimum-x vertex the x-coordinate must be non-decreasing towards both
    terminals.
    """
    if not edges:
        return True
    verts = [edges[0].a] + [e.b for e in edges]
    xs = [p.x for p in verts]
    lo, hi = min(xs), max(xs)
    if lo not in (xs[0], xs[-1]) or hi not in (xs[0], xs[-1]):
        return False
    for root in range(len(verts)):
        if xs[root] != lo:
            continue
        back = all(xs[i] >= xs[i + 1] for i in range(root))
        fwd = all(xs[i] <= xs[i + 1] for i in range(root, len(verts) - 1))
        if back and fwd:
            return True
    return False


def check_unique_cover(edges: Sequence[Edge]) -> bool:
    """Equivalent check via coverage counting.

    Every abscissa in the path's half-open x-extent must be covered by
    exactly one non-vertical edge. Piecewise linearity makes it enough to
    test the edge breakpoints and the midpoints between them.
    """
    if not edges:
        return True
    verts = [edges[0].a] + [e.b for e in edges]
    lo = min(p.x for p in verts)
    hi = max(p.x for p in verts)
    if lo == hi:
        return True
    spans = [
        (min(e.a.x, e.b.x), max(e.a.x, e.b.x)) for e in edges if not e.is_vertical
    ]
    breakpoints = sorted({x for span in spans for x in span} | {lo, hi})
    probes = []
    for i, x in enumerate(breakpoints):
        if lo <= x < hi:
            probes.append(x)
        if i + 1 < len(breakpoints):
            mid = (x + breakpoints[i + 1]) / 2 if isinstance(x, Fraction) or isinstance(
                breakpoints[i + 1], Fraction
            ) else Fraction(x + breakpoints[i + 1], 2)
            if lo <= mid < hi:
                probes.append(mid)
    for xi in probes:
        covered = sum(1 for a, b in spans if a <= xi < b)
        if covered != 1:
            return False
    return True


# --- Interior-side parity ---------------------------------------------------


def count_N(
    polygon: Polygon,
    segment: MaxSegment,
    xi,
    decomposition: Optional[SegmentDecomposition] = None,
) -> int:
    """Number of segments of the polygon lying at or above the segment at xi.

    Counts the segments whose half-open x-extent contains xi and whose
    height there is >= the queried segment's height. The queried segment
    counts itself, so the result is always >= 1. Requires xi strictly
    between the segment's x-extremes.
    """
    if not (segment.min_v.x < xi < segment.max_v.x):
        raise OutOfDomain(
            f"x={xi} not strictly inside ({segment.min_v.x}, {segment.max_v.x})"
        )
    if decomposition is None:
        decomposition = decompose(polygon)
    base = y_at(segment, xi)
    count = 0
    for other in decomposition.segments:
        if other.min_v.x <= xi < other.max_v.x and y_at(other, xi) >= base:
            count += 1
    return count


def assign_parities(
    polygon: Polygon, decomposition: SegmentDecomposition
) -> SegmentDecomposition:
    """Set the interior-side parity flag on every segment, in O(n).

    The segment holding the topmost vertex (ties broken by smallest x) has
    the interior below it, parity 1. If that vertex is a terminal shared by
    two segments, their incident edge slopes decide which of the two runs on
    top. The remaining parities alternate along the cyclic segment order.
    Raises ParityInconsistency when no consistent assignment exists.
    """
    segs = decomposition.segments
    if len(segs) % 2 != 0:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: odd number of segments"
        )
    xs, ys = polygon.xs, polygon.ys
    ty = max(ys)
    tx = min(compress(xs, map(eq, ys, repeat(ty))))
    # A segment's xs is non-decreasing, so its leftmost vertex at height ty
    # is the top vertex if any of them is.
    holders = [
        i for i, seg in enumerate(segs)
        if ty in seg.ys and seg.xs[seg.ys.index(ty)] == tx
    ]
    if not holders:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: topmost vertex {Point(tx, ty)} lies on "
            f"no segment"
        )

    seed_index = holders[0]
    forced: Optional[int] = None
    if len(holders) == 2:
        i, j = holders
        ix, iy, jx, jy = segs[i].xs, segs[i].ys, segs[j].xs, segs[j].ys
        # Slopes of the edges at the shared terminal, compared by
        # cross-multiplication; each dx is > 0.
        if ix[0] == jx[0] == tx and iy[0] == jy[0] == ty:
            lhs = (iy[1] - ty) * (jx[1] - tx)
            rhs = (jy[1] - ty) * (ix[1] - tx)
            above_i = lhs > rhs
        elif ix[-1] == jx[-1] == tx and iy[-1] == jy[-1] == ty:
            lhs = (ty - iy[-2]) * (tx - jx[-2])
            rhs = (ty - jy[-2]) * (tx - ix[-2])
            above_i = lhs < rhs
        else:
            raise ParityInconsistency(
                f"polygon {polygon.id!r}: vertex {Point(tx, ty)} is a mixed "
                f"shared terminal"
            )
        seed_index = i if above_i else j
        forced = j if above_i else i
    elif len(holders) > 2:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: vertex {Point(tx, ty)} lies on "
            f"{len(holders)} segments"
        )

    for i, seg in enumerate(segs):
        seg.parity = (1 + abs(i - seed_index)) % 2

    if forced is not None and segs[forced].parity != 0:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: alternation contradicts the slope rule "
            f"at vertex {Point(tx, ty)}"
        )
    return decomposition
