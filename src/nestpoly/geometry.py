"""Exact planar primitives: coordinates, points, edges and polygons.

All arithmetic is exact. A coordinate as the caller gives it, and as coord()
returns it, is a Python int or a fractions.Fraction. A Polygon holds its
vertex cycle as two columns of ints over one common denominator: vertex i is
(xs[i] / denominator, ys[i] / denominator). Integer input has denominator 1,
so its columns are the input itself; decimal or rational input is scaled up
to ints once, when the polygon is built, and every later comparison runs on
ints. Code that works in input units (the oracle, the renderer, the
generator, the instance writer, error messages) reads the views vertices,
edges, area, x_min and x_max, which divide back.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from numbers import Rational
from operator import eq, mul
from typing import Iterable, NamedTuple, Optional, Tuple, Union

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
    if isinstance(value, Rational):
        return unscale(value.numerator, value.denominator)
    if isinstance(value, str):
        return unscale(*decimal_ratio(value))
    raise ValueError(f"unsupported coordinate type: {type(value).__name__}")


def decimal_ratio(text: str) -> Tuple[int, int]:
    """(numerator, denominator) in lowest terms of integer or decimal text.

    The text must match -?[0-9]+(.[0-9]+)? in ASCII digits only: int()
    alone would also take "1_0", " 5" and other scripts' digits. The
    conversion runs on ints, digit group by digit group as Fraction does.
    """
    if not _NUMBER_RE.match(text):
        raise ValueError(f"not an integer or finite decimal: {text!r}")
    whole, _, fraction = text.lstrip("-").partition(".")
    num = int(whole)
    den = 1
    if fraction:
        den = 10 ** len(fraction)
        num = num * den + int(fraction)
        common = math.gcd(num, den)
        num //= common
        den //= common
    return (-num if text[0] == "-" else num), den


def unscale(value: int, denominator: int) -> Coord:
    """value / denominator as coord() gives it: an int when it divides."""
    if value % denominator == 0:
        return value // denominator
    return Fraction(value, denominator)


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


def unscaled_point(x: int, y: int, denominator: int) -> Point:
    """The vertex with column entries x, y over denominator, in input units."""
    return Point(unscale(x, denominator), unscale(y, denominator))


@dataclass(eq=False, slots=True)
class Polygon:
    """Simple polygon held as two int columns; build via make_polygon.

    Vertex i of the cycle is (xs[i] / denominator, ys[i] / denominator), and
    twice_area is twice the signed area in the units of the columns, > 0
    for a counter-clockwise cycle, so area == abs(twice_area) / (2 *
    denominator**2). The sweep reads the columns and twice_area only.
    vertices, edges, area, x_min and x_max give the polygon in input units,
    ints or Fractions as coord() returns them; vertices and edges are built
    on first access and then kept. Treat a Polygon as immutable.
    """

    id: str
    xs: Tuple[int, ...]
    ys: Tuple[int, ...]
    twice_area: int
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
            xs, ys, d = self.xs, self.ys, self.denominator
            if d != 1:
                xs = [unscale(x, d) for x in xs]
                ys = [unscale(y, d) for y in ys]
            v = self._vertices = tuple(map(Point, xs, ys))
        return v

    @property
    def edges(self) -> Tuple[Edge, ...]:
        e = self._edges
        if e is None:
            v = self.vertices
            e = self._edges = tuple(map(Edge, v, v[1:] + v[:1]))
        return e

    @property
    def area(self) -> Coord:
        return unscale(abs(self.twice_area), 2 * self.denominator**2)

    @property
    def x_min(self) -> Coord:
        return unscale(min(self.xs), self.denominator)

    @property
    def x_max(self) -> Coord:
        return unscale(max(self.xs), self.denominator)

    def over(self, denominator: int) -> Polygon:
        """This polygon with its columns over denominator, a multiple of its
        own denominator: int multiplies only."""
        f = denominator // self.denominator
        if f == 1:
            return self
        return Polygon(
            self.id,
            tuple([x * f for x in self.xs]),
            tuple([y * f for y in self.ys]),
            self.twice_area * f * f,
            denominator,
        )


def make_polygon(poly_id: str, vertices: Iterable) -> Polygon:
    """Validate a vertex cycle and build an immutable Polygon.

    Each vertex is an (x, y) pair whose coordinates go through coord():
    ints, Rationals and decimal text are accepted, bools and floats are
    not. The polygon's denominator is the least common denominator of its
    coordinates. Raises TooFewVertices, DuplicateConsecutiveVertex, or
    DegenerateAllCollinear for inputs that cannot bound an interior.
    Collinear consecutive vertices are permitted.
    """
    xs = []
    ys = []
    for x, y in vertices:
        xs.append(coord(x))
        ys.append(coord(y))
    # An int's denominator is 1.
    den = math.lcm(*(c.denominator for c in xs + ys))
    if den != 1:
        xs = [c.numerator * (den // c.denominator) for c in xs]
        ys = [c.numerator * (den // c.denominator) for c in ys]
    return polygon_from_columns(poly_id, tuple(xs), tuple(ys), den)


def polygon_from_columns(
    poly_id: str,
    xs: Tuple[int, ...],
    ys: Tuple[int, ...],
    denominator: int = 1,
) -> Polygon:
    """The checks and build of make_polygon on int columns over denominator.

    Error witnesses are given in input units.
    """
    n = len(xs)
    if n < 3:
        raise TooFewVertices(f"polygon {poly_id!r}: {n} vertices")
    # Edge i runs from vertex i to vertex i + 1 (xs1[i] is xs[i + 1]), and
    # the last edge from vertex n - 1 back to vertex 0.
    xs1, ys1 = xs[1:], ys[1:]
    x0, y0, x_last, y_last = xs[0], ys[0], xs[-1], ys[-1]
    # A repeat is a vertical edge of length 0: compare ys at those only.
    for i in compress(range(n - 1), map(eq, xs, xs1)):
        if ys[i] == ys1[i]:
            raise _repeat(poly_id, xs, ys, i, denominator)
    if x_last == x0 and y_last == y0:
        raise _repeat(poly_id, xs, ys, n - 1, denominator)
    # The shoelace sum over the edges.
    twice_area = (
        sum(map(mul, xs, ys1)) - sum(map(mul, xs1, ys))
        + x_last * y0 - x0 * y_last
    )
    # A nonzero area rules out a cycle of collinear vertices.
    if twice_area == 0:
        dx, dy = xs[1] - x0, ys[1] - y0
        if all(
            dx * (y - y0) == dy * (x - x0) for x, y in zip(xs[2:], ys[2:])
        ):
            raise DegenerateAllCollinear(f"polygon {poly_id!r}: zero area")
    return Polygon(poly_id, xs, ys, twice_area, denominator)


def _repeat(
    poly_id: str, xs, ys, i: int, denominator: int
) -> DuplicateConsecutiveVertex:
    """The error for vertex i of the columns, equal to the vertex after it."""
    return DuplicateConsecutiveVertex(
        f"polygon {poly_id!r}: vertex {i} repeats at "
        f"{unscaled_point(xs[i], ys[i], denominator)}"
    )
