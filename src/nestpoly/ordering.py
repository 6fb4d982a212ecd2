"""Vertical order of maximal segments at a sweep abscissa.

Two live segments compare first by height, then by slope, then by which
side the interior lies on, then by polygon area. Complete ties between
distinct segments are impossible for overlap-free input and raise
CoincidentSegments, an OverlapDetected. The order itself is the sweep
status comparator; cmp_at asks it about any two segments.
"""

from __future__ import annotations

import enum

from .segments import MaxSegment
from .sweep import StatusEntry, _after, _height_num, advance_current_edge


class Rel(enum.Enum):
    BEFORE = -1
    AFTER = 1
    SAME = 0


def cmp_at(xi, a: MaxSegment, b: MaxSegment) -> Rel:
    """Order of two segments at abscissa xi; Before means a comes first.

    The first segment in this order is the topmost one. Requires xi in
    both segments' closed x-extents; at a segment's right end its last
    edge counts.
    """
    if a is b:
        return Rel.SAME
    ea = advance_current_edge(StatusEntry(a), xi)
    eb = advance_current_edge(StatusEntry(b), xi)
    if _after(ea, _height_num(ea, xi), ea.dx, eb, xi):
        return Rel.AFTER
    return Rel.BEFORE
