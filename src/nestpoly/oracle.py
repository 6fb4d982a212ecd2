"""Brute-force reference implementations and instance validation.

Everything here is deliberately independent of the sweep and of the segment
decomposition: point location by ray casting, containment by a single
interior point per polygon, and a quadratic overlap validator. All
arithmetic is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ContainmentCycle, DegeneratePolygon
from .forest import NestingForest
from .geometry import Coord, Edge, Point, Polygon, cross


class PointLocation(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


def _between(lo, v, hi) -> bool:
    return min(lo, hi) <= v <= max(lo, hi)


def on_edge(p: Point, e: Edge) -> bool:
    """Exact test whether p lies on the closed edge e."""
    if cross(e.a, e.b, p) != 0:
        return False
    return _between(e.a.x, p.x, e.b.x) and _between(e.a.y, p.y, e.b.y)


def point_in_polygon(p: Point, polygon: Polygon) -> PointLocation:
    """Ray casting with half-open edge intervals.

    Counts the non-vertical edges whose half-open x-interval contains p.x
    and that pass strictly above p; the half-open convention makes vertices
    and vertical edges on the ray count exactly once per crossing.
    """
    for e in polygon.edges:
        if on_edge(p, e):
            return PointLocation.BOUNDARY
    px, py = p.x, p.y
    crossings = 0
    for e in polygon.edges:
        ax, ay = e.a
        bx, by = e.b
        if ax > bx:
            ax, bx = bx, ax
            ay, by = by, ay
        if ax <= px < bx:
            # Edge height above py: compare without division.
            dx = bx - ax
            if ay * dx + (px - ax) * (by - ay) > py * dx:
                crossings += 1
    return PointLocation.INSIDE if crossings % 2 else PointLocation.OUTSIDE


def _midpoint(p: Point, q: Point) -> Point:
    return Point(Fraction(p.x + q.x, 2), Fraction(p.y + q.y, 2))


def _in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    d1 = cross(a, b, p)
    d2 = cross(b, c, p)
    d3 = cross(c, a, p)
    neg = d1 < 0 or d2 < 0 or d3 < 0
    pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (neg and pos)


def interior_point(polygon: Polygon) -> Point:
    """A point strictly inside the polygon.

    Takes the lowest-then-leftmost vertex v with neighbours a and b. If no
    other vertex lies in the closed triangle a-v-b the triangle centroid
    works; otherwise the midpoint of v and the intruding vertex farthest
    from line a-b does. The result is verified and a vertical-line fallback
    covers degenerate inputs.
    """
    verts = polygon.vertices
    n = len(verts)
    vi = min(range(n), key=lambda i: (verts[i].y, verts[i].x))
    v = verts[vi]
    a = verts[(vi - 1) % n]
    b = verts[(vi + 1) % n]

    candidates = []
    for i in range(n):
        if i in ((vi - 1) % n, vi, (vi + 1) % n):
            continue
        q = verts[i]
        if q in (a, v, b):
            continue
        if _in_closed_triangle(q, a, v, b):
            candidates.append(q)

    candidates.sort(key=lambda q: abs(cross(a, b, q)), reverse=True)
    attempts = [_midpoint(v, q) for q in candidates]
    attempts.append(
        Point(Fraction(a.x + v.x + b.x, 3), Fraction(a.y + v.y + b.y, 3))
    )
    for p in attempts:
        if point_in_polygon(p, polygon) is PointLocation.INSIDE:
            return p

    # Fallback: cut the polygon with a vertical line between two distinct
    # vertex abscissae and take the midpoint of the lowest crossing pair.
    xs = sorted({p.x for p in verts})
    for lo, hi in zip(xs, xs[1:]):
        xi = Fraction(lo + hi, 2)
        ys = []
        for e in polygon.edges:
            if e.is_vertical:
                continue
            exl, exr = e.left.x, e.right.x
            if exl <= xi < exr:
                el, er = e.left, e.right
                num = el.y * (er.x - el.x) + (xi - el.x) * (er.y - el.y)
                ys.append(Fraction(num, er.x - el.x))
        ys.sort()
        if len(ys) >= 2:
            p = Point(xi, Fraction(ys[0] + ys[1], 2))
            if point_in_polygon(p, polygon) is PointLocation.INSIDE:
                return p
    raise DegeneratePolygon(f"no interior point found for {polygon.id!r}")


def brute_force_forest(polygons: Sequence[Polygon]) -> NestingForest:
    """Quadratic reference: parent = smallest-area strict container.

    Containment of overlap-free polygons is decided by locating one interior
    point: a shared interior point means the two are nested, and the larger
    area identifies the container. Raises ContainmentCycle when two polygons
    of equal area claim each other, which cannot happen for valid input.
    """
    points = {p.id: interior_point(p) for p in polygons}
    spans = [(q, q.x_min, q.x_max) for q in polygons]
    parent: Dict[str, Optional[str]] = {}
    for p in polygons:
        containers = []
        pt = points[p.id]
        for q, lo, hi in spans:
            if q.id == p.id:
                continue
            # An interior point of q is strictly inside q's x-extent.
            if not lo < pt.x < hi:
                continue
            if point_in_polygon(pt, q) is PointLocation.INSIDE:
                if q.area == p.area:
                    raise ContainmentCycle(
                        f"{p.id!r} and {q.id!r} have equal area {p.area} "
                        f"but share interior points"
                    )
                if q.area < p.area:
                    # p's witness point lies in q because q nests inside p.
                    continue
                containers.append(q)
        if containers:
            best = min(containers, key=lambda q: (q.area, q.id))
            parent[p.id] = best.id
        else:
            parent[p.id] = None
    return NestingForest(parent)


# --- Validation -------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "self_intersection" | "interior_overlap" | "duplicate"
    polygon_ids: Tuple[str, ...]
    witness: str


@dataclass
class ValidationReport:
    ok: bool
    violations: List[Violation] = field(default_factory=list)


def _segments_intersect(e: Edge, f: Edge) -> bool:
    """Closed segments e and f share at least one point."""
    d1 = cross(f.a, f.b, e.a)
    d2 = cross(f.a, f.b, e.b)
    d3 = cross(e.a, e.b, f.a)
    d4 = cross(e.a, e.b, f.b)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    # Endpoint contacts cover all collinear overlap cases as well.
    if d1 == 0 and on_edge(e.a, f):
        return True
    if d2 == 0 and on_edge(e.b, f):
        return True
    if d3 == 0 and on_edge(f.a, e):
        return True
    if d4 == 0 and on_edge(f.b, e):
        return True
    return False


def _self_intersects(polygon: Polygon) -> Optional[str]:
    edges = polygon.edges
    n = len(edges)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            e, f = edges[i], edges[j]
            if adjacent:
                shared = e.b if j == i + 1 else e.a
                other_e = e.a if j == i + 1 else e.b
                other_f = f.b if j == i + 1 else f.a
                if cross(shared, other_e, other_f) == 0:
                    # Collinear neighbours: simple only if they continue in
                    # the same direction rather than folding back.
                    dot = (other_e.x - shared.x) * (other_f.x - shared.x) + (
                        other_e.y - shared.y
                    ) * (other_f.y - shared.y)
                    if dot > 0:
                        return f"edges {i} and {j} fold back at {shared}"
                continue
            if _segments_intersect(e, f):
                return f"edges {i} and {j} intersect"
    return None


def _canonical_cycle(polygon: Polygon) -> Tuple[Tuple[Coord, Coord], ...]:
    seq = [(p.x, p.y) for p in polygon.vertices]
    best = None
    for cand_seq in (seq, list(reversed(seq))):
        for r in range(len(cand_seq)):
            rot = tuple(cand_seq[r:] + cand_seq[:r])
            if best is None or rot < best:
                best = rot
    return best


def _split_points(e: Edge, other: Polygon) -> List[Point]:
    pts = [e.a, e.b]
    for f in other.edges:
        for q in _edge_intersections(e, f):
            pts.append(q)
    if e.a.x != e.b.x:
        key = lambda p: p.x
    else:
        key = lambda p: p.y
    pts.sort(key=key)
    reverse = key(e.a) > key(e.b)
    if reverse:
        pts.reverse()
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _edge_intersections(e: Edge, f: Edge) -> List[Point]:
    """Points where f meets e, restricted to points lying on e."""
    d1 = cross(f.a, f.b, e.a)
    d2 = cross(f.a, f.b, e.b)
    if d1 == 0 and d2 == 0:
        return [p for p in (f.a, f.b) if on_edge(p, e)]
    d3 = cross(e.a, e.b, f.a)
    d4 = cross(e.a, e.b, f.b)
    pts = []
    if d3 == 0 and on_edge(f.a, e):
        pts.append(f.a)
    if d4 == 0 and on_edge(f.b, e):
        pts.append(f.b)
    if pts:
        return pts
    if (d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0 \
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0:
        t = Fraction(d1, d1 - d2)
        return [
            Point(e.a.x + t * (e.b.x - e.a.x), e.a.y + t * (e.b.y - e.a.y))
        ]
    return []


def _pair_overlap(p: Polygon, q: Polygon) -> Optional[str]:
    """Witness that Int(p) meets both Int(q) and its exterior, if any.

    Splits every edge of p at its intersections with q's boundary and
    classifies the sub-edge midpoints; partial interior overlap shows up as
    sub-edges on both sides of q's boundary.
    """
    inside_witness = None
    outside_witness = None
    for e in p.edges:
        pts = _split_points(e, q)
        for a, b in zip(pts, pts[1:]):
            mid = _midpoint(a, b)
            loc = point_in_polygon(mid, q)
            if loc is PointLocation.INSIDE:
                inside_witness = mid
            elif loc is PointLocation.OUTSIDE:
                outside_witness = mid
            if inside_witness is not None and outside_witness is not None:
                return (
                    f"boundary of {p.id!r} passes through the interior of "
                    f"{q.id!r} near {tuple(inside_witness)}"
                )
    return None


def validate(polygons: Sequence[Polygon]) -> ValidationReport:
    """Quadratic validator for the overlap-free, possibly touching model.

    Flags self-intersections, duplicate polygons (identical vertex cycles
    up to rotation and reflection), and pairs whose interiors partially
    overlap. Collinear shared sub-edges and shared vertices are touching,
    not violations.
    """
    violations: List[Violation] = []
    for p in polygons:
        witness = _self_intersects(p)
        if witness is not None:
            violations.append(
                Violation("self_intersection", (p.id,), witness)
            )

    seen: Dict[Tuple, str] = {}
    for p in polygons:
        key = _canonical_cycle(p)
        if key in seen:
            violations.append(
                Violation(
                    "duplicate", (seen[key], p.id), "identical vertex cycles"
                )
            )
        else:
            seen[key] = p.id

    clean = [p for p in polygons
             if all(v.kind != "self_intersection" or p.id not in v.polygon_ids
                    for v in violations)]
    spans = [(p, p.x_min, p.x_max) for p in clean]
    for i, (p, lo, hi) in enumerate(spans):
        for q, q_lo, q_hi in spans[i + 1:]:
            # Interiors whose x-extents share at most one abscissa are
            # disjoint.
            if hi <= q_lo or q_hi <= lo:
                continue
            witness = _pair_overlap(p, q)
            if witness is None:
                witness = _pair_overlap(q, p)
            if witness is not None:
                violations.append(
                    Violation("interior_overlap", (p.id, q.id), witness)
                )
    return ValidationReport(ok=not violations, violations=violations)
