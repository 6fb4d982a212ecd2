"""Decomposition of a polygon boundary into maximal x-monotone segments.

Each segment is a boundary subpath whose non-vertical edges cover pairwise
disjoint half-open x-intervals. A segment holds its polygon and the index
range of its chain, nothing else: its `side` (whose sign tells whether the
interior lies above or below it) and its polygon id are read from those.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, gt, lt, ne, sub
from typing import Tuple

from .errors import ParityInconsistency
from .geometry import Polygon, unscaled_point


@dataclass(eq=False, slots=True)
class MaxSegment:
    """Maximal x-monotone boundary segment of one polygon.

    The segment is the chain of polygon's vertices from index first, its
    leftmost, to index last, its rightmost, in steps of 1 or -1, so xs is
    non-decreasing along it; its first and last edges are not vertical. The
    larger of first and last lies in [0, n) and the other may be negative:
    Python's negative indexing carries a chain round vertex 0. polygon is
    the Polygon that decompose was given; the columns, the id and the signed
    twice_area are read from it.
    """

    polygon: Polygon
    first: int
    last: int

    @property
    def side(self) -> int:
        """twice_area for a rightward chain, -twice_area for a leftward one.

        The interior lies left of a counter-clockwise boundary (twice_area >
        0), so above the segment when side > 0, below (parity 1) when < 0.
        """
        t = self.polygon.twice_area
        return t if self.last > self.first else -t

    @property
    def polygon_id(self) -> str:
        return self.polygon.id


@dataclass(slots=True)
class SegmentDecomposition:
    """All maximal segments of one polygon, in boundary traversal order."""

    segments: Tuple[MaxSegment, ...]


def decompose(polygon: Polygon) -> SegmentDecomposition:
    """Split the boundary into maximal x-monotone segments, in O(n).

    An x-monotone polygon whose leftmost x lies on one vertex or one
    vertical edge, and whose rightmost x likewise, has exactly two segments:
    the chain from its left extreme to its right extreme and the chain back.
    Such a polygon is split there with a few C-level passes over its x
    column; every other polygon goes to scan_runs. Both give the same
    segments, with no coordinate copied, in the same order.
    """
    xs = polygon.xs
    # Both counts come before any index or slice: a polygon with three or
    # more vertices at an extreme leaves after two or four passes.
    hi = max(xs)
    hi_count = xs.count(hi)
    if hi_count > 2:
        return scan_runs(polygon)
    lo = min(xs)
    lo_count = xs.count(lo)
    if lo_count > 2:
        return scan_runs(polygon)
    n = len(xs)
    # The extremes as vertical edges (a0, a1) and (b0, b1) in traversal
    # order; a lone vertex is an edge of length 0 with a0 == a1.
    a0 = a1 = xs.index(lo)
    if lo_count == 2:
        if xs[a0 + 1] == lo:
            a1 = a0 + 1
        elif a0 == 0 and xs[-1] == lo:
            a0 = n - 1
        else:
            return scan_runs(polygon)
    b0 = b1 = xs.index(hi)
    if hi_count == 2:
        if xs[b0 + 1] == hi:
            b1 = b0 + 1
        elif b0 == 0 and xs[-1] == hi:
            b0 = n - 1
        else:
            return scan_runs(polygon)
    # The rightward chain runs from a1 to b0, the leftward one from b1 to
    # a0; each is monotone in x or the polygon is not x-monotone.
    rx = xs[a1:b0 + 1] if a1 <= b0 else xs[a1:] + xs[:b0 + 1]
    if sorted(rx) != list(rx):
        return scan_runs(polygon)
    lx = xs[b1:a0 + 1] if b1 <= a0 else xs[b1:] + xs[:a0 + 1]
    if sorted(lx, reverse=True) != list(lx):
        return scan_runs(polygon)
    # A chain that passes vertex 0 takes its lower index below 0.
    right = MaxSegment(polygon, a1 if a1 <= b0 else a1 - n, b0)
    left = MaxSegment(polygon, a0, b1 if b1 <= a0 else b1 - n)
    # Segments go in the order of their first edges, a1 and b1.
    return SegmentDecomposition((right, left) if a1 < b1 else (left, right))


def scan_runs(polygon: Polygon) -> SegmentDecomposition:
    """decompose for any polygon: one segment per run of non-vertical edges.

    Runs in O(n) on the polygon's coordinate columns. Vertical edges between
    two same-direction runs are absorbed into the segment; vertical edges
    between opposite-direction runs become connector runs and belong to no
    segment. Around a closed cycle the non-vertical edges' dx sum to 0, so
    both x-directions occur, and the runs of a cyclic sequence of two
    directions come in even number: every boundary has an even number of
    segments, at least two. Segments are ordered by their first edge, and
    take their index pairs from the runs' end vertices, with no slice.
    """
    xs = polygon.xs
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

    segments = []
    for r, k in enumerate(run_starts):
        a = nonvert[k]
        # Python's index -1 wraps the last run round to the first.
        e = nonvert[run_starts[(r + 1) % len(run_starts)] - 1]
        # Vertices a .. b = e + 1 along the cycle, as MaxSegment has them.
        b = a + (e - a) % n + 1
        if b >= n:
            a, b = a - n, b - n
        if turns[k] > 0:
            segments.append(MaxSegment(polygon, a, b))
        else:
            segments.append(MaxSegment(polygon, b, a))
    return SegmentDecomposition(tuple(segments))


def assign_parities(
    polygon: Polygon, decomposition: SegmentDecomposition
) -> SegmentDecomposition:
    """Check the orientation that MaxSegment.side reads, in O(n).

    A simple polygon's topmost vertex (ties broken by smallest x) is a strict
    convex corner that the boundary passes once, so the boundary turns there
    with the sign of twice_area. Raises ParityInconsistency, naming that
    vertex, when the polygon fails this; returns decomposition otherwise.
    """
    xs, ys = polygon.xs, polygon.ys
    ty = max(ys)
    i = ys.index(ty)
    row_xs = ()  # xs of the top row when it holds more than one vertex
    if ty in ys[i + 1:]:
        row = list(compress(range(len(ys)), map(eq, ys, repeat(ty))))
        row_xs = list(map(xs.__getitem__, row))
        i = row[row_xs.index(min(row_xs))]
    tx = xs[i]
    # Cross product of the edges into and out of vertex i; index -1 wraps.
    j = (i + 1) % len(xs)
    turn = (tx - xs[i - 1]) * (ys[j] - ty) - (ty - ys[i - 1]) * (xs[j] - tx)
    if row_xs.count(tx) > 1 or turn * polygon.twice_area <= 0:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: topmost vertex "
            f"{unscaled_point(tx, ty, polygon.denominator)} is not a convex "
            f"corner that the boundary passes once"
        )
    return decomposition
