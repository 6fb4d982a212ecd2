"""Sweep-line construction of the nesting forest.

Segments enter the status structure at their left x-extreme and leave at
their right one. When the entering segment is the first of its polygon, its
predecessor in the status (the segment immediately above) determines the
polygon's immediate container. The status is a treap whose order is fixed
lazily by comparisons at the current abscissa; relative order of co-resident
segments never changes, so stored order stays valid as the sweep advances.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import (
    CoincidentSegments,
    InternalOrderViolation,
    OutOfDomain,
    SemanticError,
)
from .forest import NestingForest
from .geometry import Coord, Polygon, _normalize, rescaled
from .ordering import cmp_core, tie_break
from .segments import MaxSegment, assign_parities, decompose

DEBUG_ENV = "NESTPOLY_DEBUG_ASSERT"


class StatusEntry:
    """A live segment: its forward-only current-edge cursor and treap node.

    ax, ay, dx, dy and end cache the current edge: its left end, its
    direction (dx > 0) and the abscissa of its right end. They change only
    when advance_current_edge moves the cursor. prio, left, right and par
    link the entry into a SweepStatus.
    """

    __slots__ = (
        "segment", "cursor", "ax", "ay", "dx", "dy", "end",
        "prio", "left", "right", "par",
    )

    def __init__(self, segment: MaxSegment):
        self.segment = segment
        self.cursor = 0
        self._load(segment.span_edges[0])
        self.prio = None
        self.left = self.right = self.par = None

    def _load(self, edge) -> None:
        (ax, ay), (bx, by) = edge
        self.ax = ax
        self.ay = ay
        self.dx = bx - ax
        self.dy = by - ay
        self.end = bx

    def current_edge(self):
        return self.segment.span_edges[self.cursor]


def advance_current_edge(entry: StatusEntry, xi) -> StatusEntry:
    """Move the cursor forward to the edge associated with xi.

    The cursor never moves backwards; across a whole sweep each entry's
    cursor advances at most once per span edge.
    """
    seg = entry.segment
    if xi > seg.max_v.x:
        raise OutOfDomain(
            f"x={xi} beyond segment of polygon {seg.polygon_id!r}"
        )
    edges = seg.span_edges
    last = len(edges) - 1
    cur = entry.cursor
    while cur < last and edges[cur].b.x <= xi:
        cur += 1
    if cur != entry.cursor:
        entry.cursor = cur
        entry._load(edges[cur])
    if xi < entry.ax:
        raise OutOfDomain(
            f"x={xi} precedes the current edge of a segment of polygon "
            f"{seg.polygon_id!r}"
        )
    return entry


def _after(entry: StatusEntry, hn, hd, other: StatusEntry, xi) -> bool:
    """Whether entry, of height hn / hd at xi, comes after other at xi."""
    if other.end <= xi:
        advance_current_edge(other, xi)
    dx = other.dx
    lhs = hn * dx
    rhs = hd * (other.ay * dx + (xi - other.ax) * other.dy)
    if lhs != rhs:
        return lhs < rhs
    return tie_break(
        entry.segment, entry.dx, entry.dy, other.segment, dx, other.dy, xi
    ) > 0


def _successor(entry: StatusEntry) -> Optional[StatusEntry]:
    cur = entry.right
    if cur is not None:
        while cur.left is not None:
            cur = cur.left
        return cur
    cur = entry
    while cur.par is not None and cur.par.right is cur:
        cur = cur.par
    return cur.par


class SweepStatus:
    """Treap over the live segments, ordered top to bottom at the sweep x.

    Insertions compare lazily at the current abscissa; deletions and
    predecessor queries navigate by entry handle and need no comparisons,
    so no comparison is ever made at a position where a leaving segment's
    order could have become stale. An insert at the abscissa of the one
    before it first tries the slot just below that entry, with at most two
    comparisons: a polygon's chains that start at one vertex are inserted
    one after the other, top to bottom.
    """

    def __init__(self, seed: int = 0):
        self.root: Optional[StatusEntry] = None
        self.xi = None
        self._rng = random.Random(seed)
        self._entries: Dict[int, StatusEntry] = {}
        self._last: Optional[StatusEntry] = None

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, segment: MaxSegment, xi) -> StatusEntry:
        entry = StatusEntry(segment)
        advance_current_edge(entry, xi)
        entry.prio = self._rng.random()
        # Height of the new entry at xi as hn / hd, hd > 0.
        hd = entry.dx
        hn = entry.ay * hd + (xi - entry.ax) * entry.dy
        if self.root is None:
            self.root = entry
        elif xi != self.xi or not self._link_below_last(entry, hn, hd, xi):
            edx, edy = entry.dx, entry.dy
            cur = self.root
            while True:
                if cur.end <= xi:
                    advance_current_edge(cur, xi)
                dx = cur.dx
                lhs = hn * dx
                rhs = hd * (cur.ay * dx + (xi - cur.ax) * cur.dy)
                if lhs > rhs or (
                    lhs == rhs
                    and tie_break(
                        segment, edx, edy, cur.segment, dx, cur.dy, xi
                    ) < 0
                ):
                    if cur.left is None:
                        cur.left = entry
                        break
                    cur = cur.left
                else:
                    if cur.right is None:
                        cur.right = entry
                        break
                    cur = cur.right
            entry.par = cur
        while entry.par is not None and entry.prio < entry.par.prio:
            self._rotate_up(entry)
        self.xi = xi
        self._last = entry
        self._entries[id(segment)] = entry
        return entry

    def _link_below_last(self, entry: StatusEntry, hn, hd, xi) -> bool:
        """Link entry right after the previous insert if it belongs there."""
        prev = self._last
        if prev is None or not _after(entry, hn, hd, prev, xi):
            return False
        succ = _successor(prev)
        if succ is not None and _after(entry, hn, hd, succ, xi):
            return False
        if prev.right is None:
            prev.right = entry
            entry.par = prev
        else:
            succ.left = entry
            entry.par = succ
        return True

    def remove(self, segment: MaxSegment) -> None:
        node = self._entries.pop(id(segment))
        if node is self._last:
            self._last = None
        while node.left is not None and node.right is not None:
            child = (
                node.left
                if node.left.prio < node.right.prio
                else node.right
            )
            self._rotate_up(child)
        child = node.left if node.left is not None else node.right
        par = node.par
        if child is not None:
            child.par = par
        if par is None:
            self.root = child
        elif par.left is node:
            par.left = child
        else:
            par.right = child
        node.left = node.right = node.par = None

    def predecessor(self, entry: StatusEntry) -> Optional[StatusEntry]:
        """Entry immediately before (above) the given one, or None."""
        cur = entry.left
        if cur is not None:
            while cur.right is not None:
                cur = cur.right
            return cur
        cur = entry
        while cur.par is not None and cur.par.left is cur:
            cur = cur.par
        return cur.par

    def in_order(self) -> List[StatusEntry]:
        out: List[StatusEntry] = []
        stack: List[StatusEntry] = []
        cur = self.root
        while cur is not None or stack:
            while cur is not None:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            out.append(cur)
            cur = cur.right
        return out

    def assert_consistent(self) -> None:
        """Debug check: stored order matches fresh comparisons at self.xi."""
        xi = self.xi
        entries = self.in_order()
        for prev, cur in zip(entries, entries[1:]):
            advance_current_edge(cur, xi)
            hn = cur.ay * cur.dx + (xi - cur.ax) * cur.dy
            if not _after(cur, hn, cur.dx, prev, xi):
                raise InternalOrderViolation(
                    f"status order broken at x={xi} between polygons "
                    f"{prev.segment.polygon_id!r} and {cur.segment.polygon_id!r}"
                )

    def _rotate_up(self, node: StatusEntry) -> None:
        par = node.par
        grand = par.par
        if par.left is node:
            par.left = node.right
            if node.right is not None:
                node.right.par = par
            node.right = par
        else:
            par.right = node.left
            if node.left is not None:
                node.left.par = par
            node.left = par
        par.par = node
        node.par = grand
        if grand is None:
            self.root = node
        elif grand.left is par:
            grand.left = node
        else:
            grand.right = node


def status_predecessor(
    status: SweepStatus, entry: StatusEntry
) -> Optional[StatusEntry]:
    return status.predecessor(entry)


@dataclass(slots=True)
class Event:
    kind: str  # "insert" or "remove"
    xi: Coord
    segment: MaxSegment
    first: bool = False


def build_events(segments: Sequence[MaxSegment]) -> List[Event]:
    """Merged event list: one insert and one remove per segment.

    Events are ordered by abscissa; at equal abscissa every remove precedes
    every insert, and inserts are ordered top to bottom at that abscissa.
    The first insert of each polygon carries first=True.
    """
    by_min = sorted(segments, key=lambda s: s.min_v.x)
    inserts: List[Event] = []
    seen_polygons = set()
    i = 0
    n = len(by_min)
    while i < n:
        j = i
        x = by_min[i].min_v.x
        while j < n and by_min[j].min_v.x == x:
            j += 1
        group = by_min[i:j]
        if len(group) > 1:
            group.sort(
                key=cmp_to_key(
                    lambda a, b, _x=x: cmp_core(
                        a, a.edge_at(_x), b, b.edge_at(_x), _x
                    )
                )
            )
        for seg in group:
            first = seg.polygon_id not in seen_polygons
            seen_polygons.add(seg.polygon_id)
            inserts.append(Event("insert", x, seg, first))
        i = j

    removes = [
        Event("remove", s.max_v.x, s)
        for s in sorted(segments, key=lambda s: s.max_v.x)
    ]

    events: List[Event] = []
    ri = ii = 0
    while ri < len(removes) and ii < len(inserts):
        if removes[ri].xi <= inserts[ii].xi:
            events.append(removes[ri])
            ri += 1
        else:
            events.append(inserts[ii])
            ii += 1
    events.extend(removes[ri:])
    events.extend(inserts[ii:])
    return events


@dataclass
class SweepStats:
    m: int  # polygons
    n: int  # vertices
    N: int  # maximal segments
    events: int


def nesting_forest(
    polygons: Sequence[Polygon], debug: Optional[bool] = None
) -> NestingForest:
    forest, _ = nesting_forest_with_stats(polygons, debug=debug)
    return forest


def nesting_forest_with_stats(
    polygons: Sequence[Polygon], debug: Optional[bool] = None
) -> Tuple[NestingForest, SweepStats]:
    """Compute immediate containers for overlap-free, possibly touching
    polygons in O(n + N log N).

    When some coordinate is not an int, the sweep runs on a copy of the
    instance multiplied by the least common denominator of all coordinates,
    so every comparison is on ints; the forest does not change under
    positive scaling, and error witnesses are given in input units.

    Raises SemanticError when two polygons share an id. With debug
    assertions on (argument or NESTPOLY_DEBUG_ASSERT=1) the status order is
    re-verified after every insertion; this makes the sweep quadratic and is
    meant for tests only.
    """
    if debug is None:
        debug = os.environ.get(DEBUG_ENV, "") == "1"

    scale = math.lcm(*(poly.denominator for poly in polygons))
    memo: Dict[Coord, int] = {}
    seen: Set[str] = set()
    segments: List[MaxSegment] = []
    n_vertices = 0
    for poly in polygons:
        if poly.id in seen:
            raise SemanticError(f"duplicate polygon id {poly.id!r}")
        seen.add(poly.id)
        if scale != 1:
            poly = rescaled(poly, scale, memo)
        deco = assign_parities(poly, decompose(poly))
        segments.extend(deco.segments)
        n_vertices += len(poly.vertices)

    try:
        events = build_events(segments)
        parent = _sweep(events, debug)
    except CoincidentSegments as exc:
        if scale == 1:
            raise
        x = _normalize(Fraction(exc.x, scale))
        raise CoincidentSegments(*exc.polygon_ids, x) from None

    stats = SweepStats(
        m=len(parent), n=n_vertices, N=len(segments), events=len(events)
    )
    return NestingForest(parent), stats


def _sweep(events: List[Event], debug: bool) -> Dict[str, Optional[str]]:
    """Run the status through the events; immediate container per polygon."""
    status = SweepStatus()
    parent: Dict[str, Optional[str]] = {}

    for ev in events:
        if ev.kind == "remove":
            status.remove(ev.segment)
            continue
        entry = status.insert(ev.segment, ev.xi)
        if ev.first:
            if debug and ev.segment.parity != 1:
                raise InternalOrderViolation(
                    f"first segment of polygon {ev.segment.polygon_id!r} "
                    f"has interior above it"
                )
            pred = status.predecessor(entry)
            pid = ev.segment.polygon_id
            if pred is None:
                parent[pid] = None
            elif pred.segment.parity == 1:
                parent[pid] = pred.segment.polygon_id
            else:
                parent[pid] = parent[pred.segment.polygon_id]
        if debug:
            status.assert_consistent()
    return parent
