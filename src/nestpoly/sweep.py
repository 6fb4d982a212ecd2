"""Sweep-line construction of the nesting forest.

Segments enter the status structure at their left x-extreme and leave at
their right one. When the entering segment is the first of its polygon, the
live segment immediately above it determines the polygon's immediate
container. The status is a treap whose order is fixed lazily by comparisons
at the current abscissa; relative order of co-resident segments never
changes, so stored order stays valid as the sweep advances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import chain, compress, count
from operator import and_, eq
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import CoincidentSegments, OutOfDomain, SemanticError
from .forest import NestingForest
from .geometry import Polygon, unscale
from .segments import MaxSegment, assign_parities, decompose


class StatusEntry:
    """A live segment: its forward-only current-edge cursor and treap node.

    cursor is the column index of the left end of the segment's current
    edge, which runs to the next vertex of the chain (see MaxSegment). ax,
    ay, dx, dy and end cache that edge: its left end, its direction (dx > 0)
    and the abscissa of its right end. They start at the segment's first
    edge and change only when advance_current_edge moves the cursor; side
    copies segment.side. prio, left, right and par link the entry into a
    SweepStatus's treap; up and down thread the live entries top to bottom.
    """

    __slots__ = (
        "segment", "cursor", "ax", "ay", "dx", "dy", "end", "side",
        "prio", "left", "right", "par", "up", "down",
    )

    def __init__(self, segment: MaxSegment, prio: float):
        self.segment = segment
        self.cursor = k = segment.first
        j = k + 1 if segment.last > k else k - 1
        self.side = segment.side
        xs, ys = segment.polygon.xs, segment.polygon.ys
        self.ax = ax = xs[k]
        self.ay = ay = ys[k]
        self.end = bx = xs[j]
        self.dx = bx - ax
        self.dy = ys[j] - ay
        self.prio = prio
        self.left = self.right = self.par = self.up = self.down = None

    @property
    def polygon_id(self) -> str:
        # Read by tie_break on a complete tie, as MaxSegment.polygon_id is.
        return self.segment.polygon.id


def advance_current_edge(entry: StatusEntry, xi) -> StatusEntry:
    """Move the cursor forward to the edge associated with xi.

    The cursor steps along the chain, never backwards; across a whole sweep
    each entry's cursor advances at most once per edge. It passes over
    vertical edges, which are never the last edge of a segment.
    """
    seg = entry.segment
    xs = seg.polygon.xs
    last = seg.last
    if xi > xs[last]:
        raise OutOfDomain(
            f"x={xi} beyond segment of polygon {seg.polygon.id!r}"
        )
    cur = entry.cursor
    step = 1 if last > cur else -1
    nxt = cur + step
    while nxt != last and xs[nxt] <= xi:
        cur = nxt
        nxt += step
    if cur != entry.cursor:
        ys = seg.polygon.ys
        entry.cursor = cur
        entry.ax = ax = xs[cur]
        entry.ay = ay = ys[cur]
        entry.end = bx = xs[nxt]
        entry.dx = bx - ax
        entry.dy = ys[nxt] - ay
    if xi < entry.ax:
        raise OutOfDomain(
            f"x={xi} precedes the current edge of a segment of polygon "
            f"{seg.polygon.id!r}"
        )
    return entry


def tie_break(a: Union[MaxSegment, StatusEntry], adx, ady,
              b: Union[MaxSegment, StatusEntry], bdx, bdy, xi) -> int:
    """Order of two distinct segments that have equal height at xi.

    a and b are two StatusEntries, which store side, or two MaxSegments,
    whose side property is read only when the slopes tie.
    (adx, ady) and (bdx, bdy) are the directions of their edges at xi, with
    adx, bdx > 0. The steeper edge runs above just right of xi and comes
    first; then, read only on equal slopes, the positive side (interior
    above) first; then the smaller side first, which puts the smaller of
    two polygons on its interior's side of the larger.
    Returns -1 when a comes first, +1 otherwise; raises CoincidentSegments,
    an OverlapDetected, on a complete tie.
    """
    lhs = ady * bdx
    rhs = bdy * adx
    if lhs != rhs:
        return -1 if lhs > rhs else 1
    sa, sb = a.side, b.side
    if (sa > 0) != (sb > 0):
        return -1 if sa > 0 else 1
    if sa != sb:
        return -1 if sa < sb else 1
    raise CoincidentSegments(a.polygon_id, b.polygon_id, xi)


class SweepStatus:
    """Treap over the live segments, ordered top to bottom at the sweep x.

    Insertions compare lazily at the current abscissa, which must lie in
    the inserted segment's x-extent; deletions navigate by entry handle and
    need no comparisons, so no comparison is ever made where a leaving
    segment's order could have become stale. An insert first walks the
    up/down thread from the finger, the last insert or, once that leaves,
    the neighbour that took its place. The height test with the finger
    picks the side, each later test passes one more entry on that side,
    and the first entry on the other side ends the walk, so both
    neighbours of the slot are tested. A polygon's later chains tend to
    enter near its earlier ones, its first chain anywhere: from a finger of
    the inserted segment's own polygon the walk gives up after passing as
    many entries as the live count has bits, from any other after one, so
    the O(log N) bound holds. Every insert into a non-empty status tries
    the finger, and descends from the root when the walk gives up. The walk
    and the descent only find the slot's two neighbours, up and down; one
    step then hangs the new entry there as a leaf, threads it between them
    and rotates it up in one loop, which keeps the order. A remove takes
    its entry from the segment's handle, MaxSegment.entry, unlinks it and
    joins its two subtrees by priority in one loop. A segment is live in at
    most one status at a time.
    """

    def __init__(self):
        self.root: Optional[StatusEntry] = None
        self._draw = random.Random(0).random
        self._live = 0  # live entries; its bit length bounds the walk
        # The last insert, or the neighbour that took its place on removal.
        self._finger: Optional[StatusEntry] = None

    def insert(self, segment: MaxSegment, xi) -> StatusEntry:
        entry = StatusEntry(segment, self._draw())
        if xi != entry.ax:
            advance_current_edge(entry, xi)
        # Height of the new entry at xi as hn / hd, hd > 0.
        hd = entry.dx
        hn = entry.ay * hd + (xi - entry.ax) * entry.dy
        if self._finger is None or not self._link_at_finger(
            entry, hn, hd, xi
        ):
            # Descend from the root: up is the last entry it goes right of,
            # down the last it goes left of.
            up = down = None
            cur = self.root
            while cur is not None:  # does entry come after cur at xi?
                if cur.end <= xi:
                    advance_current_edge(cur, xi)
                dx = cur.dx
                lhs = hn * dx
                rhs = hd * (cur.ay * dx + (xi - cur.ax) * cur.dy)
                if lhs < rhs or lhs == rhs and tie_break(
                    entry, hd, entry.dy, cur, dx, cur.dy, xi
                ) > 0:
                    up, cur = cur, cur.right
                else:
                    down, cur = cur, cur.left
            entry.up, entry.down = up, down
        # Hang the new leaf in the slot between up and down: up's right link
        # when up has no right subtree, and otherwise down's left, since down
        # is then that subtree's leftmost entry. Thread it between the two.
        up, down = entry.up, entry.down
        if up is not None and up.right is None:
            par = up
            up.right = entry
        elif down is not None:
            par = down
            down.left = entry
        else:
            par = None
        if up is not None:
            up.down = entry
        if down is not None:
            down.up = entry
        # Rotate the new leaf up while its priority is below its parent's.
        prio = entry.prio
        while par is not None and prio < par.prio:
            grand = par.par
            if par.left is entry:
                par.left = inner = entry.right
                entry.right = par
            else:
                par.right = inner = entry.left
                entry.left = par
            if inner is not None:
                inner.par = par
            par.par = entry
            if grand is not None:
                if grand.left is par:
                    grand.left = entry
                else:
                    grand.right = entry
            par = grand
        entry.par = par
        if par is None:
            self.root = entry
        self._finger = entry
        self._live += 1
        segment.entry = entry
        return entry

    def _link_at_finger(self, entry: StatusEntry, hn, hd, xi) -> bool:
        """Set entry's up and down to the neighbours of the slot its walk
        from the finger finds, or return False with neither set when the
        walk gives up."""
        near = far = self._finger
        below = None  # which side of the finger entry goes, once tested
        steps = None  # how many more entries the walk may pass
        while True:  # does entry come after far at xi?
            if far.end <= xi:
                advance_current_edge(far, xi)
            dx = far.dx
            lhs = hn * dx
            rhs = hd * (far.ay * dx + (xi - far.ax) * far.dy)
            after = lhs < rhs or lhs == rhs and tie_break(
                entry, hd, entry.dy, far, dx, far.dy, xi
            ) > 0
            if below is None:
                below = after
            elif after is not below:
                break
            else:
                if steps is None:  # near is still the finger
                    steps = (
                        self._live.bit_length()
                        if near.segment.polygon is entry.segment.polygon
                        else 1
                    )
                steps -= 1
                if not steps:
                    return False
            near = far
            far = near.down if below else near.up
            if far is None:
                break
        entry.up, entry.down = (near, far) if below else (far, near)
        return True

    def remove(self, segment: MaxSegment) -> None:
        node = segment.entry
        del segment.entry
        self._live -= 1
        up, down = node.up, node.down
        if node is self._finger:
            self._finger = up if up is not None else down
        if up is not None:
            up.down = down
        if down is not None:
            down.up = up
        # Join node's subtrees into its slot: each step hangs the root of
        # lower priority there, and the next slot is on that root's inner side.
        left, right = node.left, node.right
        par = node.par
        on_left = par is not None and par.left is node
        while True:
            if right is None or left is not None and left.prio < right.prio:
                child = left
            else:
                child = right
            if child is not None:
                child.par = par
            if par is None:
                self.root = child
            elif on_left:
                par.left = child
            else:
                par.right = child
            if left is None or right is None:
                break
            par = child
            if child is left:
                on_left = False
                left = left.right
            else:
                on_left = True
                right = right.left
        node.left = node.right = node.par = node.up = node.down = None

    def predecessor(self, entry: StatusEntry) -> Optional[StatusEntry]:
        """Entry immediately before (above) the given one, or None."""
        return entry.up


@dataclass(slots=True)
class Event:
    kind: str  # "insert" or "remove"
    xi: int
    segment: MaxSegment
    first: bool = False


@dataclass(slots=True)
class SweepEvents:
    """One insert and one remove per segment, merged as they are read.

    Events come by abscissa, removes first at each one. merge() yields each
    as a plain tuple; iterating wraps each tuple in an Event, and marks the
    first insert of each polygon with first=True.
    """

    removes: List[MaxSegment]  # by right x
    inserts: List[MaxSegment]  # by left x, then top to bottom

    def __len__(self) -> int:
        return 2 * len(self.inserts)

    def __iter__(self) -> Iterator[Event]:
        seen: Set[str] = set()
        for segment, x, inserting in self.merge():
            pid = segment.polygon_id
            kind = "insert" if inserting else "remove"
            yield Event(kind, x, segment, inserting and pid not in seen)
            seen.add(pid)

    def merge(self) -> Iterator[Tuple[MaxSegment, int, bool]]:
        """(segment, x, inserting) per event, in the order of the sweep."""
        removes = iter(self.removes)
        r = next(removes, None)
        for s in self.inserts:
            x = s.polygon.xs[s.first]
            # Each segment ends right of its start, so the last remove
            # comes after every insert: removes cannot run out here.
            while (end := r.polygon.xs[r.last]) <= x:
                yield r, end, False
                r = next(removes)
            yield s, x, True
        while r is not None:
            yield r, r.polygon.xs[r.last], False
            r = next(removes, None)


def _cmp_shared_start(a: MaxSegment, b: MaxSegment) -> int:
    # Two segments that start at one point (x, y): their first edges decide.
    i, j = a.first, b.first
    ai = i + 1 if a.last > i else i - 1
    bj = j + 1 if b.last > j else j - 1
    pa, pb = a.polygon, b.polygon
    x, y = pa.xs[i], pa.ys[i]
    return tie_break(
        a, pa.xs[ai] - x, pa.ys[ai] - y, b, pb.xs[bj] - x, pb.ys[bj] - y, x
    )


_start_key = cmp_to_key(_cmp_shared_start)


def build_events(segments: Sequence[MaxSegment]) -> SweepEvents:
    """The sweep's events: removes by right x, inserts by start point."""
    removes = sorted(segments, key=lambda s: s.polygon.xs[s.last])
    # A segment inserted at x starts there, at its first vertex's y: two
    # stable sorts order the inserts by x, then top to bottom. Only runs that
    # share a start point go to tie_break: a key for every segment would
    # keep two new objects per segment alive, and set off a full GC.
    inserts = sorted(
        segments, key=lambda s: s.polygon.ys[s.first], reverse=True
    )
    inserts.sort(key=lambda s: s.polygon.xs[s.first])
    xs = [s.polygon.xs[s.first] for s in inserts]
    ys = [s.polygon.ys[s.first] for s in inserts]
    # i when segment i starts where segment i - 1 does; -1 ends the last run.
    same = map(and_, map(eq, xs[1:], xs), map(eq, ys[1:], ys))
    lo = hi = 0
    for i in chain(compress(count(1), same), (-1,)):
        if i != hi:
            if hi - lo == 2:  # the one comparison sorted would make
                if _cmp_shared_start(inserts[lo + 1], inserts[lo]) < 0:
                    inserts[lo], inserts[lo + 1] = inserts[lo + 1], inserts[lo]
            else:
                inserts[lo:hi] = sorted(inserts[lo:hi], key=_start_key)
            lo = i - 1
        hi = i + 1
    return SweepEvents(removes, inserts)


@dataclass
class SweepStats:
    m: int  # polygons
    n: int  # vertices
    N: int  # maximal segments
    events: int


def nesting_forest(polygons: Sequence[Polygon]) -> NestingForest:
    return nesting_forest_with_stats(polygons)[0]


def nesting_forest_with_stats(
    polygons: Sequence[Polygon],
) -> Tuple[NestingForest, SweepStats]:
    """Compute immediate containers for overlap-free, possibly touching
    polygons in O(n + N log N).

    Every polygon holds int columns over its denominator (see Polygon).
    The sweep brings all of them over one denominator, the least common
    multiple of theirs, by int multiplies of the polygons whose own
    denominator differs, so every comparison is on ints; polygons read from
    one document already share theirs. The forest does not change under
    positive scaling, and error witnesses are given in input units.

    Raises SemanticError when two polygons share an id.
    """
    scale = math.lcm(*(poly.denominator for poly in polygons))
    seen: Set[str] = set()
    segments: List[MaxSegment] = []
    n_vertices = 0
    for poly in polygons:
        if poly.id in seen:
            raise SemanticError(f"duplicate polygon id {poly.id!r}")
        seen.add(poly.id)
        poly = poly.over(scale)
        deco = assign_parities(poly, decompose(poly))
        segments.extend(deco.segments)
        n_vertices += len(poly.xs)
    del seen  # not needed through the sweep

    n_segments = len(segments)
    try:
        events = build_events(segments)
        del segments  # the events hold the segments from here on
        parent = _sweep(events)
    except CoincidentSegments as exc:
        x = unscale(exc.x, scale)
        raise CoincidentSegments(*exc.polygon_ids, x) from None

    stats = SweepStats(len(parent), n_vertices, n_segments, len(events))
    return NestingForest(parent), stats


def _sweep(events: SweepEvents) -> Dict[str, Optional[str]]:
    """Run the status through the events; immediate container per polygon."""
    status = SweepStatus()
    insert, remove = status.insert, status.remove
    parent: Dict[str, Optional[str]] = {}

    for segment, x, inserting in events.merge():
        if not inserting:
            remove(segment)
            continue
        up = insert(segment, x).up
        pid = segment.polygon.id
        if pid not in parent:  # the polygon's first segment
            if up is None:
                parent[pid] = None
            elif up.side < 0:
                parent[pid] = up.segment.polygon.id
            else:
                parent[pid] = parent[up.segment.polygon.id]
    return parent
