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
from .ordering import cmp_core, cmp_slopes
from .segments import MaxSegment, assign_parities, decompose

DEBUG_ENV = "NESTPOLY_DEBUG_ASSERT"


class StatusEntry:
    """A resident segment plus its forward-only current-edge cursor."""

    __slots__ = ("segment", "cursor", "_y_xi", "_y_num", "_y_den")

    def __init__(self, segment: MaxSegment):
        self.segment = segment
        self.cursor = 0
        self._y_xi = None
        self._y_num = None
        self._y_den = None

    def current_edge(self):
        return self.segment.span_edges[self.cursor]

    def y_num_den(self, xi):
        """Height at xi on the current edge as (num, den) with den > 0."""
        if xi == self._y_xi:
            return self._y_num, self._y_den
        e = self.segment.span_edges[self.cursor]
        den = e.b.x - e.a.x
        num = e.a.y * den + (xi - e.a.x) * (e.b.y - e.a.y)
        self._y_xi = xi
        self._y_num = num
        self._y_den = den
        return num, den


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
    entry.cursor = cur
    if xi < edges[cur].a.x:
        raise OutOfDomain(
            f"x={xi} precedes the current edge of a segment of polygon "
            f"{seg.polygon_id!r}"
        )
    return entry


class _Node:
    __slots__ = ("entry", "prio", "left", "right", "par")

    def __init__(self, entry: StatusEntry, prio: float):
        self.entry = entry
        self.prio = prio
        self.left = None
        self.right = None
        self.par = None


class SweepStatus:
    """Treap over the live segments, ordered top to bottom at the sweep x.

    Insertions compare lazily at the current abscissa; deletions and
    predecessor queries navigate by node handle and need no comparisons,
    so no comparison is ever made at a position where a leaving segment's
    order could have become stale.
    """

    def __init__(self, seed: int = 0):
        self.root: Optional[_Node] = None
        self.xi = None
        self._rng = random.Random(seed)
        self._nodes: Dict[int, _Node] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def _cmp_entries(self, a: StatusEntry, b: StatusEntry) -> int:
        xi = self.xi
        na, da = a.y_num_den(xi)
        nb, db = b.y_num_den(xi)
        lhs = na * db
        rhs = nb * da
        if lhs != rhs:
            # Higher segment first.
            return -1 if lhs > rhs else 1
        c = cmp_slopes(a.current_edge(), b.current_edge())
        if c:
            return -c
        sa, sb = a.segment, b.segment
        if sa.parity != sb.parity:
            return -1 if sa.parity == 0 else 1
        if sa.area != sb.area:
            if sa.parity == 1:
                return -1 if sa.area > sb.area else 1
            return -1 if sa.area < sb.area else 1
        raise CoincidentSegments(sa.polygon_id, sb.polygon_id, xi)

    def insert(self, segment: MaxSegment, xi) -> StatusEntry:
        self.xi = xi
        entry = StatusEntry(segment)
        advance_current_edge(entry, xi)
        node = _Node(entry, self._rng.random())
        if self.root is None:
            self.root = node
        else:
            cur = self.root
            while True:
                advance_current_edge(cur.entry, xi)
                if self._cmp_entries(entry, cur.entry) < 0:
                    if cur.left is None:
                        cur.left = node
                        node.par = cur
                        break
                    cur = cur.left
                else:
                    if cur.right is None:
                        cur.right = node
                        node.par = cur
                        break
                    cur = cur.right
            while node.par is not None and node.prio < node.par.prio:
                self._rotate_up(node)
        self._nodes[id(segment)] = node
        return entry

    def remove(self, segment: MaxSegment) -> None:
        node = self._nodes.pop(id(segment))
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

    def entry_for(self, segment: MaxSegment) -> StatusEntry:
        return self._nodes[id(segment)].entry

    def predecessor(self, entry: StatusEntry) -> Optional[StatusEntry]:
        """Entry immediately before (above) the given one, or None."""
        node = self._nodes[id(entry.segment)]
        if node.left is not None:
            cur = node.left
            while cur.right is not None:
                cur = cur.right
            return cur.entry
        cur = node
        while cur.par is not None and cur.par.left is cur:
            cur = cur.par
        return cur.par.entry if cur.par is not None else None

    def in_order(self) -> List[StatusEntry]:
        out: List[StatusEntry] = []
        stack: List[_Node] = []
        cur = self.root
        while cur is not None or stack:
            while cur is not None:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            out.append(cur.entry)
            cur = cur.right
        return out

    def assert_consistent(self) -> None:
        """Debug check: stored order matches fresh comparisons at self.xi."""
        entries = self.in_order()
        for prev, cur in zip(entries, entries[1:]):
            advance_current_edge(prev, self.xi)
            advance_current_edge(cur, self.xi)
            if self._cmp_entries(prev, cur) >= 0:
                raise InternalOrderViolation(
                    f"status order broken at x={self.xi} between polygons "
                    f"{prev.segment.polygon_id!r} and {cur.segment.polygon_id!r}"
                )

    def _rotate_up(self, node: _Node) -> None:
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
