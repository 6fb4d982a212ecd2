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

    edges are ordered by non-decreasing left x and each non-vertical edge is
    oriented left to right. span_edges lists only the non-vertical edges;
    their half-open x-intervals partition [min_v.x, max_v.x). parity is
    assigned by assign_parities and is None before that.
    """

    polygon_id: str
    edges: Tuple[Edge, ...]
    span_edges: Tuple[Edge, ...]
    min_v: Point
    max_v: Point
    area: Coord
    cyclic_index: int
    parity: Optional[int] = None
    # Left x of every span edge, built by the first edge_at call that
    # needs it.
    _span_lefts: Tuple[Coord, ...] = field(default=(), repr=False)

    def edge_at(self, xi) -> Edge:
        """Non-vertical edge associated with xi.

        For min_v.x <= xi < max_v.x this is the unique span edge whose
        half-open x-interval contains xi; at xi == max_v.x it is the last
        span edge.
        """
        if xi < self.min_v.x or xi > self.max_v.x:
            raise OutOfDomain(
                f"x={xi} outside [{self.min_v.x}, {self.max_v.x}] "
                f"of a segment of polygon {self.polygon_id!r}"
            )
        if xi == self.max_v.x:
            return self.span_edges[-1]
        if xi == self.min_v.x:
            return self.span_edges[0]
        lefts = self._span_lefts
        if not lefts:
            lefts = self._span_lefts = tuple(e.a.x for e in self.span_edges)
        idx = bisect_right(lefts, xi) - 1
        return self.span_edges[idx]


@dataclass(frozen=True)
class SegmentDecomposition:
    """All maximal segments of one polygon, in boundary traversal order.

    connector_runs[i] holds the (possibly empty) run of vertical edges
    between segments[i] and segments[(i + 1) % len(segments)].
    """

    polygon_id: str
    segments: Tuple[MaxSegment, ...]
    connector_runs: Tuple[Tuple[Edge, ...], ...]


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

    Runs in O(n). Vertical edges between two same-direction runs are
    absorbed into the segment; vertical edges between opposite-direction
    runs become connector runs and belong to no segment.
    """
    edges = polygon.edges
    verts = polygon.vertices
    n = len(edges)
    xs = [p.x for p in verts]
    # x-direction of edge i: 1 rightwards, -1 leftwards, 0 vertical.
    dirs = [(a < b) - (a > b) for a, b in zip(xs, xs[1:] + xs[:1])]
    nonvert = [i for i, d in enumerate(dirs) if d]
    # A closed cycle cannot consist of vertical edges only (all x equal
    # would mean all vertices collinear, rejected at construction).
    assert nonvert, "polygon with non-vertical edges expected"

    # Group the non-vertical edges into maximal cyclic runs of equal
    # x-direction. Each run yields one maximal segment.
    k = len(nonvert)
    start = 0
    while start < k and dirs[nonvert[start]] == dirs[nonvert[start - 1]]:
        start += 1
    if start == k:
        # All non-vertical edges share one direction; impossible for a
        # closed simple cycle, but guard against corrupt input.
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: boundary never reverses x-direction"
        )

    runs: List[List[int]] = []
    run_dir = 0
    for idx in nonvert[start:] + nonvert[:start]:
        if dirs[idx] == run_dir:
            runs[-1].append(idx)
        else:
            runs.append([idx])
            run_dir = dirs[idx]

    # Doubled cycles, so that every cyclic run is one slice.
    edges2 = edges + edges
    verts2 = verts + verts
    segments: List[MaxSegment] = []
    connectors: List[Tuple[Edge, ...]] = []
    m = len(runs)
    for r, run in enumerate(runs):
        first, last = run[0], run[-1]
        stop = first + (last - first) % n + 1
        if dirs[first] > 0:
            oriented = edges2[first:stop]
        else:
            pts = verts2[first:stop + 1]
            oriented = tuple(map(Edge, pts[:0:-1], pts[-2::-1]))
        if len(oriented) == len(run):
            span_edges = oriented
        else:
            span_edges = tuple(e for e in oriented if e.a.x != e.b.x)
        segments.append(
            MaxSegment(
                polygon_id=polygon.id,
                edges=oriented,
                span_edges=span_edges,
                min_v=oriented[0].a,
                max_v=oriented[-1].b,
                area=polygon.area,
                cyclic_index=r,
            )
        )
        next_first = runs[(r + 1) % m][0]
        gap = (next_first - last - 1) % n
        connectors.append(edges2[last + 1:last + 1 + gap])

    return SegmentDecomposition(
        polygon_id=polygon.id,
        segments=tuple(segments),
        connector_runs=tuple(connectors),
    )


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


def _topmost_vertex(polygon: Polygon) -> Point:
    best = polygon.vertices[0]
    for p in polygon.vertices[1:]:
        if p.y > best.y or (p.y == best.y and p.x < best.x):
            best = p
    return best


def _slope_pair(e: Edge):
    # Slope as (dy, dx) with dx > 0; compare via cross-multiplication.
    dy = e.b.y - e.a.y
    dx = e.b.x - e.a.x
    return dy, dx


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
    top = _topmost_vertex(polygon)
    holders = []
    for i, seg in enumerate(segs):
        if seg.min_v == top or seg.max_v == top:
            holders.append(i)
        else:
            for e in seg.edges[:-1]:
                if e.b == top:
                    holders.append(i)
                    break
    if not holders:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: topmost vertex {top} lies on no segment"
        )

    seed_index = holders[0]
    seed_parity = 1
    forced: Optional[Tuple[int, int]] = None
    if len(holders) == 2:
        i, j = holders
        si, sj = segs[i], segs[j]
        if si.min_v == top and sj.min_v == top:
            ei, ej = si.span_edges[0], sj.span_edges[0]
            ni, di = _slope_pair(ei)
            nj, dj = _slope_pair(ej)
            above_i = ni * dj > nj * di
        elif si.max_v == top and sj.max_v == top:
            ei, ej = si.span_edges[-1], sj.span_edges[-1]
            ni, di = _slope_pair(ei)
            nj, dj = _slope_pair(ej)
            above_i = ni * dj < nj * di
        else:
            raise ParityInconsistency(
                f"polygon {polygon.id!r}: vertex {top} is a mixed shared terminal"
            )
        seed_index = i if above_i else j
        forced = (j if above_i else i, 0)
    elif len(holders) > 2:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: vertex {top} lies on {len(holders)} segments"
        )

    for i, seg in enumerate(segs):
        seg.parity = (seed_parity + abs(i - seed_index)) % 2

    if forced is not None and segs[forced[0]].parity != forced[1]:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: alternation contradicts the slope rule "
            f"at vertex {top}"
        )
    return decomposition
