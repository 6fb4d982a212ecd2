"""Exact planar primitives: coordinates, areas, evaluation."""

import random
from fractions import Fraction

import pytest

from nestpoly import (
    Point,
    TooFewVertices,
    coord,
    make_polygon,
)
from nestpoly.errors import (
    DegenerateAllCollinear,
    DuplicateConsecutiveVertex,
    OutOfDomain,
)
from nestpoly.geometry import cross
from nestpoly.sweep import StatusEntry, advance_current_edge

from conftest import segments_of
from reference import (
    chain,
    height_num,
    parity,
    shoelace_area,
    signed_area2,
    span_edges,
)


def test_coord_exact_decimal():
    assert coord("2.50") == Fraction(5, 2)
    assert coord("-0.1") == Fraction(-1, 10)
    assert coord(7) == 7
    assert coord("3.0") == 3 and isinstance(coord("3.0"), int)
    with pytest.raises(ValueError):
        coord("1e5")
    with pytest.raises(ValueError):
        coord(0.5)


def test_make_polygon_square():
    p = make_polygon("O", [(0, 0), (10, 0), (10, 10), (0, 10)])
    assert p.area == 100
    assert (p.x_min, p.x_max) == (0, 10)


def test_make_polygon_triangle():
    p = make_polygon("T", [(0, 0), (4, 0), (2, 2)])
    assert p.area == 4
    assert (p.x_min, p.x_max) == (0, 4)


def test_make_polygon_rejects_bad_input():
    with pytest.raises(TooFewVertices):
        make_polygon("X", [(0, 0), (1, 0)])
    with pytest.raises(DuplicateConsecutiveVertex):
        make_polygon("X", [(0, 0), (0, 0), (1, 1)])
    # The last vertex equals the first: the closing edge has length zero.
    with pytest.raises(DuplicateConsecutiveVertex) as exc:
        make_polygon("X", [(0, 0), (4, 0), (0, 4), (0, 0)])
    assert str(exc.value) == "polygon 'X': vertex 3 repeats at Point(x=0, y=0)"
    with pytest.raises(DegenerateAllCollinear):
        make_polygon("X", [(0, 0), (1, 1), (2, 2)])


def test_duplicate_vertex_first_fault():
    # A vertical edge of nonzero length is no repeat.
    assert make_polygon("X", [(0, 0), (0, 4), (4, 4), (4, 0)]).area == 16
    cases = [
        # Two repeats, the first after a vertical edge: vertex 1 is named.
        ([(0, 0), (0, 4), (0, 4), (4, 4), (4, 0), (4, 0)],
         "vertex 1 repeats at Point(x=0, y=4)"),
        # The wrap pair (n - 1, 0) is the only repeat.
        ([(1, 1), (4, 0), (4, 3), (1, 1)],
         "vertex 3 repeats at Point(x=1, y=1)"),
    ]
    for cycle, text in cases:
        with pytest.raises(DuplicateConsecutiveVertex) as exc:
            make_polygon("X", cycle)
        assert str(exc.value) == f"polygon 'X': {text}"
    # On random cycles with repeats, the first repeat in vertex order is
    # named.
    rng = random.Random(3)
    for _ in range(2000):
        cycle = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(6)]
        repeats = [
            i for i in range(6) if cycle[i] == cycle[(i + 1) % 6]
        ]
        if not repeats:
            continue
        with pytest.raises(DuplicateConsecutiveVertex) as exc:
            make_polygon("X", cycle)
        i = repeats[0]
        assert str(exc.value) == (
            f"polygon 'X': vertex {i} repeats at {Point(*cycle[i])}"
        )


def test_make_polygon_coerces_and_rejects_coordinates():
    p = make_polygon("R", [("0.5", 0), (Fraction(9, 2), 0), (2, "3.0")])
    assert p.vertices == ((Fraction(1, 2), 0), (Fraction(9, 2), 0), (2, 3))
    assert isinstance(p.vertices[2].y, int)
    for bad in (True, 0.5, "1e5", "abc", None):
        with pytest.raises(ValueError):
            make_polygon("X", [(0, 0), (4, 0), (bad, 3)])


def test_parse_instance_checks_each_coordinate_once(monkeypatch):
    import nestpoly.geometry
    import nestpoly.instance_io
    from nestpoly import parse_instance

    def no_second_pass(value):
        raise AssertionError(f"coordinate {value!r} coerced twice")

    reduced = []
    original = nestpoly.instance_io.decimal_ratio

    def counting(text):
        reduced.append(text)
        return original(text)

    monkeypatch.setattr(nestpoly.geometry, "coord", no_second_pass)
    monkeypatch.setattr(nestpoly.instance_io, "decimal_ratio", counting)
    text = (
        '{"polygons": [{"id": "T", "vertices": '
        '[[0, 0], ["4.50", 0], [2, "3.25"]]}]}'
    )
    (p,) = parse_instance(text)
    assert p.vertices == ((0, 0), (Fraction(9, 2), 0), (2, Fraction(13, 4)))
    assert p.denominator == 4
    assert reduced == ["4.50", "3.25"]
    # Each distinct string is checked and reduced once per document.
    reduced.clear()
    parse_instance(
        '{"polygons": [{"id": "T", "vertices": '
        '[["4.50", 0], [9, "4.50"], ["4.50", 9]]}]}'
    )
    assert reduced == ["4.50"]


def test_shoelace_unit_square():
    pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
    assert shoelace_area(pts) == 1


def _random_star_polygon(rng, n):
    # Points sorted by angle around their centroid form a simple polygon.
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-50, 50), rng.randint(-50, 50)))
    pts = [Point(x, y) for x, y in pts]
    cx = Fraction(sum(p.x for p in pts), len(pts))
    cy = Fraction(sum(p.y for p in pts), len(pts))
    import math

    pts.sort(key=lambda p: math.atan2(p.y - cy, p.x - cx))
    return pts


def _ear_clip_area(vertices):
    """Independent area: sum of triangle areas of an ear-clipping run."""
    verts = list(vertices)
    orient = 1 if signed_area2(verts) > 0 else -1
    total = Fraction(0)
    guard = 0
    while len(verts) > 3:
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if orient * cross(a, b, c) <= 0:
                continue
            ear = True
            for p in verts:
                if p in (a, b, c):
                    continue
                s1 = orient * cross(a, b, p)
                s2 = orient * cross(b, c, p)
                s3 = orient * cross(c, a, p)
                if s1 > 0 and s2 > 0 and s3 > 0:
                    ear = False
                    break
            if ear:
                total += shoelace_area([a, b, c])
                del verts[i]
                break
        guard += 1
        assert guard < 10_000, "ear clipping failed to terminate"
    total += shoelace_area(verts)
    return total


def test_shoelace_matches_ear_clipping_20gon():
    rng = random.Random(7)
    for _ in range(5):
        pts = _random_star_polygon(rng, 20)
        p = make_polygon("R", pts)
        assert p.area == _ear_clip_area(p.vertices)


def test_shoelace_metamorphic():
    rng = random.Random(11)
    pts = _random_star_polygon(rng, 12)
    base = shoelace_area(pts)
    moved = [Point(p.x + 1000, p.y - 37) for p in pts]
    assert shoelace_area(moved) == base
    s = Fraction(3, 7)
    scaled = [Point(p.x * s, p.y * s) for p in pts]
    assert shoelace_area(scaled) == base * s * s
    assert shoelace_area(list(reversed(pts))) == base


def _upper_triangle_segment():
    t = make_polygon("T", [(0, 0), (4, 0), (2, 3)])
    upper = [s for s in segments_of(t) if parity(s) == 1]
    assert len(upper) == 1
    return upper[0]


def _height_and_slope(segment, xi):
    """The sweep's height formula and edge slope at xi, on a fresh cursor."""
    entry = advance_current_edge(StatusEntry(segment, 0.0), xi)
    return (
        Fraction(height_num(entry, xi)) / entry.dx,
        Fraction(entry.dy) / entry.dx,
    )


def test_y_at_triangle():
    s = _upper_triangle_segment()
    assert _height_and_slope(s, 2) == (3, Fraction(-3, 2))
    assert _height_and_slope(s, 3)[0] == Fraction(3, 2)
    with pytest.raises(OutOfDomain):
        _height_and_slope(s, 5)


def _naive_eval(segment, xi):
    # Linear scan over the segment's edges, ignoring its index structure.
    for e in span_edges(segment):
        lo, hi = e.a.x, e.b.x
        if lo <= xi < hi or (xi == chain(segment)[0][-1] and hi == xi):
            t = (Fraction(xi) - lo) / (hi - lo)
            slope = Fraction(e.b.y - e.a.y) / (hi - lo)
            return e.a.y + t * (e.b.y - e.a.y), slope
    raise AssertionError("xi not covered")


def test_eval_matches_naive_scan(small_corpus):
    rng = random.Random(3)
    for polygons in small_corpus[:8]:
        for p in polygons:
            for s in segments_of(p):
                xs, _ = chain(s)
                lo, hi = xs[0], xs[-1]
                for _ in range(10):
                    xi = lo + Fraction(
                        rng.randint(0, 999), 1000
                    ) * (hi - lo)
                    assert _height_and_slope(s, xi) == _naive_eval(s, xi)
