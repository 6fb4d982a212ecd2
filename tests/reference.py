"""Reference checks that the tests run against the library.

None of this runs in `nestpoly nest`: the shoelace area of a vertex list,
point location by winding number, the three x-monotonicity checkers, a
segment's parity and the direct segment count behind it, an
any-two-segments view of the sweep's vertical order, walks of the status
treap that check its thread, the coordinate and Point/Edge views of a
segment that these checks read, the sweep's events as one sorted list, a
sweep status that re-checks its order after every insert (raising
InternalOrderViolation), one that counts the events alive at the middle
insert, and a boundary-contact test for generated polygons.
"""

from __future__ import annotations

import enum
import gc
import math
from bisect import bisect_right
from fractions import Fraction
from functools import cmp_to_key
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import nestpoly.sweep
from nestpoly import NestingForest, make_polygon
from nestpoly.errors import NestpolyError, OutOfDomain
from nestpoly.geometry import (
    Coord,
    Edge,
    Point,
    Polygon,
    _twice_area,
    cross,
)
from nestpoly.oracle import PointLocation, _between, on_edge
from nestpoly.segments import MaxSegment, SegmentDecomposition, decompose
from nestpoly.sweep import (
    Event,
    StatusEntry,
    SweepStatus,
    _after,
    _cmp_shared_start,
    advance_current_edge,
)


def _normalize(value: Fraction) -> Coord:
    return value.numerator if value.denominator == 1 else value


# --- Area of a vertex list ---------------------------------------------------


def shoelace_area(vertices: Sequence[Point]) -> Coord:
    """Unsigned area of the polygon with the given vertex cycle."""
    return _normalize(Fraction(abs(signed_area2(vertices))) / 2)


def signed_area2(vertices: Sequence[Point]) -> Coord:
    """Twice the signed area; >0 for counterclockwise vertex order."""
    xs = [p.x for p in vertices]
    ys = [p.y for p in vertices]
    return _twice_area(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])


# --- Coordinate and Point/Edge views of a maximal segment --------------------


def chain(segment: MaxSegment) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(xs, ys): the coordinate columns of the segment's vertices, read from
    its polygon's columns from index first to index last, left to right."""
    first, last = segment.first, segment.last
    step = 1 if last > first else -1
    indices = range(first, last + step, step)
    polygon = segment.polygon
    return (
        tuple(polygon.xs[i] for i in indices),
        tuple(polygon.ys[i] for i in indices),
    )


def segment_edges(segment: MaxSegment) -> Tuple[Edge, ...]:
    """The segment's edges, those of chain(segment) left to right, each
    non-vertical one oriented left to right."""
    v = tuple(map(Point, *chain(segment)))
    return tuple(map(Edge, v, v[1:]))


def span_edges(segment: MaxSegment) -> Tuple[Edge, ...]:
    """The non-vertical edges; their half-open x-intervals partition
    [xs[0], xs[-1]) of chain(segment)."""
    return tuple(e for e in segment_edges(segment) if e.a.x != e.b.x)


def edge_at(segment: MaxSegment, xi) -> Edge:
    """Non-vertical edge associated with xi, from xs, ys = chain(segment).

    For xs[0] <= xi < xs[-1] this is the unique span edge whose half-open
    x-interval contains xi; at xi == xs[-1] it is the last span edge.
    """
    xs, ys = chain(segment)
    if xi < xs[0] or xi > xs[-1]:
        raise OutOfDomain(
            f"x={xi} outside [{xs[0]}, {xs[-1]}] "
            f"of a segment of polygon {segment.polygon_id!r}"
        )
    # The last vertex at or left of xi starts a non-vertical edge.
    k = min(bisect_right(xs, xi), len(xs) - 1) - 1
    return Edge(Point(xs[k], ys[k]), Point(xs[k + 1], ys[k + 1]))


def y_at(segment: MaxSegment, xi) -> Coord:
    """Height of the segment at abscissa xi (closed domain)."""
    e = edge_at(segment, xi)
    num = e.a.y * (e.b.x - e.a.x) + (xi - e.a.x) * (e.b.y - e.a.y)
    den = e.b.x - e.a.x
    if isinstance(num, int) and isinstance(den, int):
        return _normalize(Fraction(num, den))
    return _normalize(Fraction(num) / Fraction(den))


# --- Vertical order of two segments -------------------------------------------


class Rel(enum.Enum):
    BEFORE = -1
    AFTER = 1
    SAME = 0


def height_num(entry: StatusEntry, xi):
    """Height of entry's current edge at xi, times entry.dx: the formula
    SweepStatus.insert uses for the new entry, and _after and the insert's
    inline descent use for each entry they compare it with."""
    return entry.ay * entry.dx + (xi - entry.ax) * entry.dy


def cmp_at(xi, a: MaxSegment, b: MaxSegment) -> Rel:
    """Order of two segments at abscissa xi; Before means a comes first.

    The first segment in this order is the topmost one. Requires xi in
    both segments' closed x-extents; at a segment's right end its last
    edge counts. The order is the sweep status comparator's.
    """
    if a is b:
        return Rel.SAME
    ea = advance_current_edge(StatusEntry(a, 0.0), xi)
    eb = advance_current_edge(StatusEntry(b, 0.0), xi)
    if _after(ea, height_num(ea, xi), ea.dx, eb, xi):
        return Rel.AFTER
    return Rel.BEFORE


# --- The events as one list --------------------------------------------------


def event_list(segments: Sequence[MaxSegment]) -> List[Event]:
    """All events in one list, in the order the sweep reads them.

    Removes go by right x, inserts by start point (left x, then top to
    bottom, then tie_break); one stable sort by abscissa then puts every
    remove before every insert at each abscissa. The first insert of each
    polygon carries first=True.
    """

    def start(s: MaxSegment):
        xs, ys = chain(s)
        return xs[0], -ys[0]

    def end(s: MaxSegment):
        return chain(s)[0][-1]

    def by_start(a: MaxSegment, b: MaxSegment) -> int:
        ka, kb = start(a), start(b)
        if ka != kb:
            return -1 if ka < kb else 1
        return _cmp_shared_start(a, b)

    events = [
        Event("remove", end(s), s) for s in sorted(segments, key=end)
    ]
    seen = set()
    for s in sorted(segments, key=cmp_to_key(by_start)):
        events.append(
            Event("insert", start(s)[0], s, s.polygon_id not in seen)
        )
        seen.add(s.polygon_id)
    events.sort(key=attrgetter("xi"))
    return events


# --- Sweeps through an instrumented status ------------------------------------


def _forest_with(polygons: Sequence[Polygon], **patches) -> NestingForest:
    """nesting_forest with the given names of nestpoly.sweep replaced."""
    sweep = nestpoly.sweep
    saved = {name: getattr(sweep, name) for name in patches}
    for name, value in patches.items():
        setattr(sweep, name, value)
    try:
        return sweep.nesting_forest(polygons)
    finally:
        for name, value in saved.items():
            setattr(sweep, name, value)


def status_order(status: SweepStatus) -> List[StatusEntry]:
    """The live entries top to bottom: an in-order walk of the treap."""
    out: List[StatusEntry] = []
    stack: List[StatusEntry] = []
    cur = status.root
    while cur is not None or stack:
        while cur is not None:
            stack.append(cur)
            cur = cur.left
        cur = stack.pop()
        out.append(cur)
        cur = cur.right
    return out


def walk_predecessor(entry: StatusEntry) -> Optional[StatusEntry]:
    """The entry just above the given one, found by a walk of the treap."""
    cur = entry.left
    if cur is not None:
        while cur.right is not None:
            cur = cur.right
        return cur
    cur = entry
    while (par := cur.par) is not None and par.left is cur:
        cur = par
    return par


def walk_successor(entry: StatusEntry) -> Optional[StatusEntry]:
    """The entry just below the given one, found by a walk of the treap."""
    cur = entry.right
    if cur is not None:
        while cur.left is not None:
            cur = cur.left
        return cur
    cur = entry
    while (par := cur.par) is not None and par.right is cur:
        cur = par
    return par


def check_thread(status: SweepStatus) -> None:
    """Assert that the up and down links thread the live entries in
    status_order, read from either end, and that predecessor and each
    entry's down agree with the walks of the treap."""
    order = status_order(status)
    if not order:
        return
    down: List[StatusEntry] = []
    cur: Optional[StatusEntry] = order[0]
    while cur is not None:
        down.append(cur)
        cur = cur.down
    up: List[StatusEntry] = []
    cur = order[-1]
    while cur is not None:
        up.append(cur)
        cur = cur.up
    assert down == order and up == order[::-1]
    for entry in order:
        assert status.predecessor(entry) is walk_predecessor(entry)
        assert entry.down is walk_successor(entry)


class InternalOrderViolation(NestpolyError):
    """A CheckedStatus or checked_forest check failed."""


class CheckedStatus(SweepStatus):
    """A SweepStatus that re-checks every adjacent pair after each insert.

    Each check compares afresh at the insert's abscissa with the status
    comparator, so a sweep through it is quadratic.
    """

    def insert(self, segment: MaxSegment, xi) -> StatusEntry:
        entry = super().insert(segment, xi)
        entries = status_order(self)
        for prev, cur in zip(entries, entries[1:]):
            advance_current_edge(cur, xi)
            if not _after(cur, height_num(cur, xi), cur.dx, prev, xi):
                raise InternalOrderViolation(
                    f"status order broken at x={xi} between polygons "
                    f"{prev.segment.polygon_id!r} and "
                    f"{cur.segment.polygon_id!r}"
                )
        return entry


def checked_forest(polygons: Sequence[Polygon]) -> NestingForest:
    """nesting_forest, run through a CheckedStatus.

    It also checks that the first segment of every polygon has the
    polygon's interior below it (parity 1). Raises InternalOrderViolation
    when either check fails.
    """
    build_events = nestpoly.sweep.build_events

    def checked_build_events(segments):
        events = build_events(segments)
        for ev in events:
            if ev.first and parity(ev.segment) != 1:
                raise InternalOrderViolation(
                    f"first segment of polygon {ev.segment.polygon_id!r} "
                    f"has interior above it"
                )
        return events

    return _forest_with(
        polygons, SweepStatus=CheckedStatus, build_events=checked_build_events
    )


def live_events_mid_sweep(polygons: Sequence[Polygon]) -> int:
    """How many Event objects gc.get_objects() finds at the middle insert
    of nesting_forest(polygons)."""
    middle = sum(len(decompose(p).segments) for p in polygons) // 2
    counts: List[int] = []

    class CountingStatus(SweepStatus):
        inserts = 0

        def insert(self, segment: MaxSegment, xi) -> StatusEntry:
            self.inserts += 1
            if self.inserts == middle:
                counts.append(sum(type(o) is Event for o in gc.get_objects()))
            return super().insert(segment, xi)

    _forest_with(polygons, SweepStatus=CountingStatus)
    return counts[0]


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


# --- Interior-side parity from first principles --------------------------------


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
    xs = chain(segment)[0]
    if not (xs[0] < xi < xs[-1]):
        raise OutOfDomain(f"x={xi} not strictly inside ({xs[0]}, {xs[-1]})")
    if decomposition is None:
        decomposition = decompose(polygon)
    base = y_at(segment, xi)
    count = 0
    for other in decomposition.segments:
        oxs = chain(other)[0]
        if oxs[0] <= xi < oxs[-1] and y_at(other, xi) >= base:
            count += 1
    return count


def parity(segment: MaxSegment) -> bool:
    """The paper's parity of a segment, 1 (True) when its polygon's interior
    lies below it: read from the sign of MaxSegment.side."""
    return segment.side < 0


def parity_oracle(polygon: Polygon, segment: MaxSegment) -> int:
    """Interior-side parity from first principles: parity of the number of
    same-polygon segments at or above the segment at its x-midpoint."""
    xs = chain(segment)[0]
    xi = Fraction(xs[0] + xs[-1], 2)
    return count_N(polygon, segment, xi) % 2


# --- Point location by winding number ------------------------------------------


def winding_location(p: Point, polygon: Polygon) -> PointLocation:
    """Independent point location via the winding number.

    Uses upward/downward crossings of the horizontal line through p with
    orientation tests; agrees with point_in_polygon on simple polygons.
    """
    px, py = p.x, p.y
    for e in polygon.edges:
        d = cross(e.a, e.b, p)
        if d == 0 and _between(e.a.x, px, e.b.x) and _between(e.a.y, py, e.b.y):
            return PointLocation.BOUNDARY
    winding = 0
    for e in polygon.edges:
        if e.a.y <= py:
            if e.b.y > py and cross(e.a, e.b, p) > 0:
                winding += 1
        else:
            if e.b.y <= py and cross(e.a, e.b, p) < 0:
                winding -= 1
    return PointLocation.INSIDE if winding != 0 else PointLocation.OUTSIDE


# --- Boundary contact ------------------------------------------------------------


def touches(a: Polygon, b: Polygon) -> bool:
    """True when the two boundaries share at least one point."""
    for p in a.vertices:
        for e in b.edges:
            if on_edge(p, e):
                return True
    for p in b.vertices:
        for e in a.edges:
            if on_edge(p, e):
                return True
    return False


# --- Random inputs for the checkers ----------------------------------------------


def _random_subpath(rng, polygon):
    n = len(polygon.edges)
    start = rng.randrange(n)
    length = rng.randint(1, min(n - 1, 8))
    return [polygon.edges[(start + j) % n] for j in range(length)]


def _crosses_reversal(edges):
    dirs = [1 if e.a.x < e.b.x else -1 for e in edges if not e.is_vertical]
    return any(a != b for a, b in zip(dirs, dirs[1:]))


def _near_regular_ngon(n, rot):
    # Convex n-gon: rational points near a circle, in angular order. The
    # rounding perturbation is far too small to break strict convexity.
    scale = 10**6
    pts = []
    for k in range(n):
        ang = rot + 2 * math.pi * k / n
        pts.append((round(math.cos(ang) * scale), round(math.sin(ang) * scale)))
    return make_polygon(f"G{n}", pts)
