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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from numbers import Rational
from operator import and_, eq, mul
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

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
    xs = [p.x for p in vertices]
    ys = [p.y for p in vertices]
    return _twice_area(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])


def _twice_area(xs, ys, next_xs, next_ys) -> Coord:
    # The shoelace sum over the columns; next_* are the columns shifted by
    # one vertex, so that each pair of entries is one edge.
    return sum(map(mul, xs, next_ys)) - sum(map(mul, next_xs, ys))


def _div2(value: Coord) -> Coord:
    if isinstance(value, int):
        if value % 2 == 0:
            return value // 2
        return Fraction(value, 2)
    return _normalize(value / 2)


@dataclass(eq=False, slots=True)
class Polygon:
    """Simple polygon held as two coordinate columns; build via make_polygon.

    xs[i], ys[i] is vertex i of the cycle, each coordinate an int or a
    Fraction as coord() returns it. vertices and edges are views of the
    columns, built on first access and then kept, for code that wants
    Points and Edges; the sweep reads the columns only. Treat a Polygon
    as immutable.
    """

    id: str
    xs: Tuple[Coord, ...]
    ys: Tuple[Coord, ...]
    area: Coord
    x_min: Coord
    x_max: Coord
    # Least common denominator of all coordinates; 1 when all are ints.
    denominator: int = 1
    _vertices: Optional[Tuple[Point, ...]] = field(
        default=None, init=False, repr=False
    )
    _edges: Optional[Tuple[Edge, ...]] = field(
        default=None, init=False, repr=False
    )

    @property
    def vertices(self) -> Tuple[Point, ...]:
        v = self._vertices
        if v is None:
            v = self._vertices = tuple(map(Point, self.xs, self.ys))
        return v

    @property
    def edges(self) -> Tuple[Edge, ...]:
        e = self._edges
        if e is None:
            v = self.vertices
            e = self._edges = tuple(map(Edge, v, v[1:] + v[:1]))
        return e


def make_polygon(poly_id: str, vertices: Iterable) -> Polygon:
    """Validate a vertex cycle and build an immutable Polygon.

    Each vertex is an (x, y) pair whose coordinates go through coord():
    ints, Rationals and decimal text are accepted, bools and floats are
    not. Raises TooFewVertices, DuplicateConsecutiveVertex, or
    DegenerateAllCollinear for inputs that cannot bound an interior.
    Collinear consecutive vertices are permitted.
    """
    xs = []
    ys = []
    for x, y in vertices:
        xs.append(coord(x))
        ys.append(coord(y))
    return polygon_from_columns(poly_id, tuple(xs), tuple(ys))


def polygon_from_columns(
    poly_id: str, xs: Tuple[Coord, ...], ys: Tuple[Coord, ...]
) -> Polygon:
    """The checks and build of make_polygon, without the coercion.

    xs and ys are the two coordinate columns of the vertex cycle. Every
    coordinate must already be as coord() returns it: an int or a Fraction
    with denominator > 1.
    """
    n = len(xs)
    if n < 3:
        raise TooFewVertices(f"polygon {poly_id!r}: {n} vertices")
    next_xs = xs[1:] + xs[:1]
    next_ys = ys[1:] + ys[:1]
    for i in compress(
        range(n), map(and_, map(eq, xs, next_xs), map(eq, ys, next_ys))
    ):
        raise DuplicateConsecutiveVertex(
            f"polygon {poly_id!r}: vertex {i} repeats at {Point(xs[i], ys[i])}"
        )
    twice_area = _twice_area(xs, ys, next_xs, next_ys)
    # A nonzero area rules out a cycle of collinear vertices.
    if twice_area == 0:
        x0, y0 = xs[0], ys[0]
        dx, dy = xs[1] - x0, ys[1] - y0
        if all(
            dx * (y - y0) == dy * (x - x0) for x, y in zip(xs[2:], ys[2:])
        ):
            raise DegenerateAllCollinear(f"polygon {poly_id!r}: zero area")
    # Every coordinate enters a product of the shoelace sum, and a Fraction
    # operand makes the whole sum a Fraction: an int sum means int input.
    if isinstance(twice_area, int):
        denominator = 1
    else:
        denominator = math.lcm(*(c.denominator for c in xs + ys))
    return Polygon(
        id=poly_id,
        xs=xs,
        ys=ys,
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
    xs, ys = polygon.xs, polygon.ys
    for c in set(xs + ys).difference(memo):
        memo[c] = c.numerator * (factor // c.denominator)
    scale = memo.__getitem__
    return Polygon(
        id=polygon.id,
        xs=tuple(map(scale, xs)),
        ys=tuple(map(scale, ys)),
        area=_normalize(polygon.area * (factor * factor)),
        x_min=scale(polygon.x_min),
        x_max=scale(polygon.x_max),
    )
