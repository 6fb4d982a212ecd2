"""Vertical order of maximal segments at a sweep abscissa.

Two live segments compare first by height, then by slope, then by which
side the interior lies on, then by polygon area. Complete ties between
distinct segments are impossible for overlap-free input and raise
OverlapDetected.
"""

from __future__ import annotations

import enum
from typing import List

from .errors import CoincidentSegments, OverlapDetected
from .segments import MaxSegment, y_at


class Rel(enum.Enum):
    BEFORE = -1
    AFTER = 1
    SAME = 0


class VerticalRel(enum.Enum):
    BELOW = "below"
    ABOVE = "above"
    COINCIDENT = "coincident"
    DISJOINT = "disjoint"


def _y_num_den(e, xi):
    # Height on a left-to-right oriented edge as num/den with den > 0.
    den = e.b.x - e.a.x
    num = e.a.y * den + (xi - e.a.x) * (e.b.y - e.a.y)
    return num, den


def cmp_edges_at(ea, eb, xi) -> int:
    """Sign of (height of ea) - (height of eb) at xi. Edges non-vertical."""
    na, da = _y_num_den(ea, xi)
    nb, db = _y_num_den(eb, xi)
    lhs = na * db
    rhs = nb * da
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def cmp_slopes(ea, eb) -> int:
    """Sign of slope(ea) - slope(eb) for left-to-right oriented edges."""
    lhs = (ea.b.y - ea.a.y) * (eb.b.x - eb.a.x)
    rhs = (eb.b.y - eb.a.y) * (ea.b.x - ea.a.x)
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def cmp_core(a: MaxSegment, ea, b: MaxSegment, eb, xi) -> int:
    """Three-way order of two distinct live segments given their edges at xi.

    Returns -1 when a comes first (a runs above b, or ties break in a's
    favour), +1 otherwise. Raises CoincidentSegments, an OverlapDetected,
    on a complete tie.
    """
    c = cmp_edges_at(ea, eb, xi)
    if c:
        return -c
    return tie_break(
        a, ea.b.x - ea.a.x, ea.b.y - ea.a.y,
        b, eb.b.x - eb.a.x, eb.b.y - eb.a.y,
        xi,
    )


def tie_break(a: MaxSegment, adx, ady, b: MaxSegment, bdx, bdy, xi) -> int:
    """Order of two distinct segments that have equal height at xi.

    (adx, ady) and (bdx, bdy) are the directions of their edges at xi, with
    adx, bdx > 0. The steeper edge runs above just right of xi and comes
    first; then the segment with interior above it (parity 0); then area:
    the larger polygon first when both interiors lie below, the smaller
    first when both lie above.
    Returns -1 when a comes first, +1 otherwise; raises CoincidentSegments
    on a complete tie.
    """
    lhs = ady * bdx
    rhs = bdy * adx
    if lhs != rhs:
        return -1 if lhs > rhs else 1
    pa, pb = a.parity, b.parity
    if pa != pb:
        return -1 if pa == 0 else 1
    if a.area != b.area:
        if pa == 1:
            return -1 if a.area > b.area else 1
        return -1 if a.area < b.area else 1
    raise CoincidentSegments(a.polygon_id, b.polygon_id, xi)


def cmp_at(xi, a: MaxSegment, b: MaxSegment) -> Rel:
    """Order of two segments at abscissa xi; Before means a comes first.

    The first segment in this order is the topmost one. Requires xi in
    both segments' half-open x-extents.
    """
    if a is b:
        return Rel.SAME
    c = cmp_core(a, a.edge_at(xi), b, b.edge_at(xi), xi)
    return Rel.BEFORE if c < 0 else Rel.AFTER


def insertion_cmp(a: MaxSegment, b: MaxSegment) -> Rel:
    """Order in which segments enter the sweep.

    Smaller left x first; at equal left x, the vertical order at that
    abscissa decides.
    """
    if a is b:
        return Rel.SAME
    if a.min_v.x != b.min_v.x:
        return Rel.BEFORE if a.min_v.x < b.min_v.x else Rel.AFTER
    return cmp_at(a.min_v.x, a, b)


def _common_breakpoints(a: MaxSegment, b: MaxSegment) -> List:
    lo = max(a.min_v.x, b.min_v.x)
    hi = min(a.max_v.x, b.max_v.x)
    if lo >= hi:
        return []
    cuts = {lo, hi}
    for seg in (a, b):
        for e in seg.span_edges:
            for x in (e.a.x, e.b.x):
                if lo <= x <= hi:
                    cuts.add(x)
    return sorted(cuts)


def is_below(a: MaxSegment, b: MaxSegment) -> VerticalRel:
    """Vertical relation of two segments over their common x-extent.

    Between consecutive breakpoints both heights are linear on a fixed
    pair of edges, so comparing at the two interval endpoints is exact.
    Raises OverlapDetected when the segments properly cross.
    """
    xs = _common_breakpoints(a, b)
    if not xs:
        return VerticalRel.DISJOINT
    saw_below = saw_above = False
    for x0, x1 in zip(xs, xs[1:]):
        ea = a.edge_at(x0)
        eb = b.edge_at(x0)
        s0 = cmp_edges_at(ea, eb, x0)
        s1 = cmp_edges_at(ea, eb, x1)
        if (s0 < 0 < s1) or (s1 < 0 < s0):
            raise OverlapDetected(
                f"segments of polygons {a.polygon_id!r} and "
                f"{b.polygon_id!r} cross"
            )
        if s0 < 0 or s1 < 0:
            saw_below = True
        if s0 > 0 or s1 > 0:
            saw_above = True
    if saw_below and saw_above:
        raise OverlapDetected(
            f"segments of polygons {a.polygon_id!r} and {b.polygon_id!r} cross"
        )
    if saw_below:
        return VerticalRel.BELOW
    if saw_above:
        return VerticalRel.ABOVE
    return VerticalRel.COINCIDENT
