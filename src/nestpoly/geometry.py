"""Exact planar primitives: coordinates, points, edges and polygons.

All arithmetic is exact. Coordinates are either Python ints or
fractions.Fraction values; the two interoperate freely, and integer inputs
stay integers so the common all-integer case runs on fast int arithmetic.
Each Polygon records the common denominator of its coordinates, so that a
whole instance can be rescaled to ints (see `rescaled`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from .errors import (
    DegenerateAllCollinear,
    DuplicateConsecutiveVertex,
    TooFewVertices,
)

Coord = Union[int, Fraction]

_NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")


def coord(value) -> Coord:
    """Build an exact coordinate from an int, Rational, or decimal text.

    Accepted text is an optionally signed integer or finite decimal such as
    "2.50"; the decimal is converted exactly, never through binary floats.
    """
    if isinstance(value, bool):
        raise ValueError("boolean is not a coordinate")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return _normalize(value)
    if isinstance(value, Rational):
        return _normalize(Fraction(value.numerator, value.denominator))
    if isinstance(value, str):
        if not _NUMBER_RE.match(value):
            raise ValueError(f"not an integer or finite decimal: {value!r}")
        return _normalize(Fraction(value))
    raise ValueError(f"unsupported coordinate type: {type(value).__name__}")


def _normalize(value: Fraction) -> Coord:
    return value.numerator if value.denominator == 1 else value


class Point(NamedTuple):
    x: Coord
    y: Coord


class Edge(NamedTuple):
    a: Point
    b: Point

    @property
    def is_vertical(self) -> bool:
        return self.a.x == self.b.x

    @property
    def left(self) -> Point:
        return self.a if self.a.x <= self.b.x else self.b

    @property
    def right(self) -> Point:
        return self.b if self.a.x <= self.b.x else self.a


def cross(o: Point, a: Point, b: Point) -> Coord:
    """Signed cross product of (a - o) and (b - o); >0 for a left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def shoelace_area(vertices: Sequence[Point]) -> Coord:
    """Unsigned area of the polygon with the given vertex cycle."""
    return _div2(abs(signed_area2(vertices)))


def signed_area2(vertices: Sequence[Point]) -> Coord:
    """Twice the signed area; >0 for counterclockwise vertex order."""
    total = 0
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return total


def _div2(value: Coord) -> Coord:
    if isinstance(value, int):
        if value % 2 == 0:
            return value // 2
        return Fraction(value, 2)
    return _normalize(value / 2)


@dataclass(frozen=True, slots=True)
class Polygon:
    """Simple polygon given as a vertex cycle; build via make_polygon."""

    id: str
    vertices: Tuple[Point, ...]
    edges: Tuple[Edge, ...]
    area: Coord
    x_min: Coord
    x_max: Coord
    # Least common denominator of all coordinates; 1 when all are ints.
    denominator: int = 1


def make_polygon(poly_id: str, vertices: Iterable) -> Polygon:
    """Validate a vertex cycle and build an immutable Polygon.

    Each vertex is an (x, y) pair whose coordinates go through coord():
    ints, Rationals and decimal text are accepted, bools and floats are
    not. Raises TooFewVertices, DuplicateConsecutiveVertex, or
    DegenerateAllCollinear for inputs that cannot bound an interior.
    Collinear consecutive vertices are permitted.
    """
    pts = []
    for x, y in vertices:
        pts.append(Point(coord(x), coord(y)))
    return polygon_from_points(poly_id, pts)


def polygon_from_points(poly_id: str, pts: List[Point]) -> Polygon:
    """The checks and build of make_polygon, without the coercion.

    Every coordinate must already be as coord() returns it: an int or a
    Fraction with denominator > 1.
    """
    if len(pts) < 3:
        raise TooFewVertices(f"polygon {poly_id!r}: {len(pts)} vertices")
    ring = pts[1:] + pts[:1]
    for i, (p, q) in enumerate(zip(pts, ring)):
        if p == q:
            raise DuplicateConsecutiveVertex(
                f"polygon {poly_id!r}: vertex {i} repeats at {p}"
            )
    if all(cross(pts[0], pts[1], p) == 0 for p in pts[2:]):
        raise DegenerateAllCollinear(f"polygon {poly_id!r}: zero area")
    edges = tuple(map(Edge, pts, ring))
    xs = [p.x for p in pts]
    twice_area = signed_area2(pts)
    # Every coordinate enters a product of the shoelace sum, and a Fraction
    # operand makes the whole sum a Fraction: an int sum means int input.
    if isinstance(twice_area, int):
        denominator = 1
    else:
        denominator = math.lcm(*(c.denominator for p in pts for c in p))
    return Polygon(
        id=poly_id,
        vertices=tuple(pts),
        edges=edges,
        area=_div2(abs(twice_area)),
        x_min=min(xs),
        x_max=max(xs),
        denominator=denominator,
    )


def rescaled(polygon: Polygon, factor: int, memo: Dict[Coord, int]) -> Polygon:
    """Copy of the polygon with every coordinate multiplied by factor.

    factor must be a multiple of polygon.denominator, so every coordinate of
    the copy is an int. memo maps input coordinates to scaled ones; sharing
    it across the polygons of an instance scales each distinct value once.
    """

    def scale(c: Coord) -> int:
        s = memo.get(c)
        if s is None:
            s = memo[c] = c.numerator * (factor // c.denominator)
        return s

    pts = [Point(scale(x), scale(y)) for x, y in polygon.vertices]
    n = len(pts)
    return Polygon(
        id=polygon.id,
        vertices=tuple(pts),
        edges=tuple(Edge(pts[i], pts[(i + 1) % n]) for i in range(n)),
        area=_normalize(polygon.area * (factor * factor)),
        x_min=memo[polygon.x_min],
        x_max=memo[polygon.x_max],
    )
