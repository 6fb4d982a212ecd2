"""Decomposition of a polygon boundary into maximal x-monotone segments.

Each segment is a boundary subpath whose non-vertical edges cover pairwise
disjoint half-open x-intervals. A segment holds its polygon and the index
range of its chain, nothing else: its `side` (whose sign tells whether the
interior lies above or below it) and its polygon id are read from those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

from .errors import ParityInconsistency
from .geometry import Polygon, unscaled_point

if TYPE_CHECKING:
    from .sweep import StatusEntry


@dataclass(eq=False, slots=True)
class MaxSegment:
    """Maximal x-monotone boundary segment of one polygon.

    The segment is the chain of polygon's vertices from index first, its
    leftmost, to index last, its rightmost, in steps of 1 or -1, so xs is
    non-decreasing along it; its first and last edges are not vertical. The
    larger of first and last lies in [0, n) and the other may be negative:
    Python's negative indexing carries a chain round vertex 0. polygon is
    the Polygon that decompose was given; the columns, the id and the signed
    twice_area are read from it. entry, set only while the segment is live
    in a SweepStatus, is its StatusEntry there: the handle remove finds it
    by. A segment is live in at most one status at a time.
    """

    polygon: Polygon
    first: int
    last: int
    entry: StatusEntry = field(init=False, repr=False)

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
    """Split the boundary into maximal x-monotone segments, in one O(n) pass.

    Each segment is one maximal cyclic run of non-vertical edges with the
    same x-direction. A vertical edge between two edges of one run belongs
    to the run; one between two runs connects them and belongs to no
    segment. Around a closed cycle the non-vertical edges' dx sum to 0, so
    both x-directions occur and the runs come in even number: every
    boundary has an even number of segments, at least two.

    The loop walks the edges of polygon.xs once. It starts from the
    direction of the cycle's last non-vertical edge, so a run opens at each
    edge whose direction differs from the one before and closes the run
    before it. The edges before the first such change belong to the run
    still open at the end, which closes round vertex 0, so the lower of its
    two indices goes negative. Segments come in the order of their first
    edges, and copy no coordinate.
    """
    xs = polygon.xs
    n = len(xs)
    x = xs[0]
    # The cycle's last non-vertical edge ends at vertex 0 after the vertical
    # edges before it; all x equal would be a collinear cycle, rejected by
    # make_polygon.
    j = n - 1
    while xs[j] == x:
        j -= 1
    right = xs[j] < x  # x-direction of the current run: True rightwards
    segments = []
    # start: first edge of the open run, -1 before the first change; last:
    # the latest non-vertical edge; wrap: the last non-vertical edge before
    # the first change, -1 if there is none.
    start = wrap = last = -1
    for i, next_x in enumerate(xs[1:] + xs[:1]):
        if next_x != x:
            if (next_x > x) is not right:
                if start >= 0:
                    b = last + 1
                    segments.append(
                        MaxSegment(polygon, start, b) if right
                        else MaxSegment(polygon, b, start)
                    )
                else:
                    wrap = last
                start = i
                right = not right
            last = i
        x = next_x
    # The open run closes at wrap, or at last if every edge before the first
    # change is vertical; it spans vertices a .. b along the cycle.
    a = start
    b = a + ((wrap if wrap >= 0 else last) - a) % n + 1
    if b >= n:
        a, b = a - n, b - n
    segments.append(
        MaxSegment(polygon, a, b) if right else MaxSegment(polygon, b, a)
    )
    return SegmentDecomposition(tuple(segments))


def assign_parities(
    polygon: Polygon, decomposition: SegmentDecomposition
) -> SegmentDecomposition:
    """Check the orientation that MaxSegment.side reads, in O(n).

    A simple polygon's topmost vertex (ties broken by smallest x) is a strict
    convex corner that the boundary passes once, so the boundary turns there
    with the sign of twice_area; count and index find the top row with no
    copy of ys. Raises ParityInconsistency, naming that vertex, when the
    polygon fails this; returns decomposition otherwise.
    """
    xs, ys = polygon.xs, polygon.ys
    ty = max(ys)
    i = k = ys.index(ty)
    tx, repeated = xs[i], False  # repeated: another top vertex at (tx, ty)
    others = ys.count(ty) - 1  # top-row vertices after vertex k
    while others:
        others -= 1
        k = ys.index(ty, k + 1)
        x = xs[k]
        if x < tx:
            i, tx, repeated = k, x, False
        elif x == tx:
            repeated = True
    # Cross product of the edges into and out of vertex i; index -1 wraps.
    j = (i + 1) % len(xs)
    turn = (tx - xs[i - 1]) * (ys[j] - ty) - (ty - ys[i - 1]) * (xs[j] - tx)
    if repeated or turn * polygon.twice_area <= 0:
        raise ParityInconsistency(
            f"polygon {polygon.id!r}: topmost vertex "
            f"{unscaled_point(tx, ty, polygon.denominator)} is not a convex "
            f"corner that the boundary passes once"
        )
    return decomposition
