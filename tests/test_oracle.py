"""Brute-force ground truth: point location, containment, validation."""

import random
from fractions import Fraction

import pytest

from nestpoly import (
    ContainmentCycle,
    Edge,
    Point,
    PointLocation,
    brute_force_forest,
    interior_point,
    make_polygon,
    point_in_polygon,
    validate,
)

from conftest import segments_of, square, top_bottom
from reference import parity, parity_oracle, winding_location


def test_point_in_polygon_examples():
    p = square("O", 0, 0, 10)
    assert point_in_polygon(Point(5, 5), p) is PointLocation.INSIDE
    assert point_in_polygon(Point(5, 10), p) is PointLocation.BOUNDARY
    assert point_in_polygon(Point(11, 5), p) is PointLocation.OUTSIDE
    assert point_in_polygon(Point(0, 0), p) is PointLocation.BOUNDARY
    assert point_in_polygon(Point(10, 5), p) is PointLocation.BOUNDARY


def test_point_in_polygon_vertex_ray_degeneracy():
    # Rays through vertices must not double-count crossings.
    t = make_polygon("T", [(0, 0), (4, 0), (2, 3)])
    assert point_in_polygon(Point(2, 1), t) is PointLocation.INSIDE
    assert point_in_polygon(Point(2, 4), t) is PointLocation.OUTSIDE
    assert point_in_polygon(Point(2, 3), t) is PointLocation.BOUNDARY


def test_winding_agreement_random():
    rng = random.Random(41)
    fixtures = [
        square("S", 0, 0, 10),
        make_polygon("T", [(0, 0), (4, 0), (2, 3)]),
        make_polygon("Z", [(0, 0), (4, 0), (4, 2), (6, 2), (6, 6), (0, 6)]),
        make_polygon("W", [(0, 0), (8, 0), (8, 8), (4, 3), (0, 8)]),
    ]
    for _ in range(20_000):
        p = Point(
            Fraction(rng.randint(-30, 110), rng.choice((1, 2, 3))),
            Fraction(rng.randint(-30, 110), rng.choice((1, 2, 3))),
        )
        poly = rng.choice(fixtures)
        assert point_in_polygon(p, poly) is winding_location(p, poly)


def test_interior_point_postcondition(small_corpus):
    checked = 0
    for polygons in small_corpus:
        for p in polygons:
            q = interior_point(p)
            assert point_in_polygon(q, p) is PointLocation.INSIDE
            checked += 1
            if checked >= 120:
                return


def test_interior_point_fixtures():
    for p in (
        square("S", 0, 0, 10),
        make_polygon("T", [(0, 0), (4, 0), (2, 2)]),
        make_polygon("W", [(0, 0), (8, 0), (8, 8), (4, 3), (0, 8)]),
    ):
        assert point_in_polygon(interior_point(p), p) is PointLocation.INSIDE


def test_brute_force_concentric():
    polygons = [square("A", 0, 0, 30), square("B", 5, 5, 18), square("C", 8, 8, 6)]
    forest = brute_force_forest(polygons)
    assert forest.parent == {"A": None, "B": "A", "C": "B"}


def test_brute_force_shared_edge(shared_edge_squares):
    forest = brute_force_forest(shared_edge_squares)
    assert forest.parent == {"A": None, "B": None}


def test_brute_force_permutation_invariant(small_corpus):
    rng = random.Random(43)
    for polygons in small_corpus[:10]:
        base = brute_force_forest(polygons)
        shuffled = list(polygons)
        rng.shuffle(shuffled)
        assert brute_force_forest(shuffled) == base


def test_brute_force_containment_partial_order(small_corpus):
    # Strict containment derived from the forest is irreflexive/transitive.
    for polygons in small_corpus[:6]:
        forest = brute_force_forest(polygons)
        ancestors = {}
        for pid in forest.parent:
            chain = set()
            cur = forest.parent[pid]
            while cur is not None:
                assert cur not in chain and cur != pid
                chain.add(cur)
                cur = forest.parent[cur]
            ancestors[pid] = chain
        for pid, chain in ancestors.items():
            for anc in chain:
                assert ancestors[anc] <= chain


def test_brute_force_duplicate_raises():
    a = square("A", 0, 0, 4)
    b = square("B", 0, 0, 4)
    with pytest.raises(ContainmentCycle):
        brute_force_forest([a, b])


def test_validate_overlap():
    report = validate([square("A", 0, 0, 4), square("B", 2, 2, 4)])
    assert not report.ok
    assert any(v.kind == "interior_overlap" for v in report.violations)


def test_validate_touching_ok(shared_edge_squares, vertex_touch_pair,
                              bottom_edge_pair):
    for fixture in (shared_edge_squares, vertex_touch_pair, bottom_edge_pair):
        report = validate(fixture)
        assert report.ok, report.violations


def test_validate_bowtie():
    bowtie = make_polygon("X", [(0, 0), (4, 4), (4, 0), (0, 4)])
    report = validate([bowtie])
    assert not report.ok
    assert any(v.kind == "self_intersection" for v in report.violations)


def test_segments_intersect_endpoint_contacts():
    from nestpoly.oracle import _segments_intersect

    def edge(a, b):
        return Edge(Point(*a), Point(*b))

    bottom = edge((4, 0), (0, 0))
    # One endpoint of each pair lies on the other edge and no other
    # endpoint is collinear, so exactly one of the four contact tests
    # holds: e.a, e.b, f.a, f.b in turn.
    for e, f in (
        (edge((2, 0), (4, 4)), bottom),
        (edge((4, 4), (2, 0)), bottom),
        (bottom, edge((2, 0), (4, 4))),
        (bottom, edge((4, 4), (2, 0))),
    ):
        assert _segments_intersect(e, f)
    assert _segments_intersect(edge((0, 0), (4, 4)), edge((0, 4), (4, 0)))
    assert not _segments_intersect(bottom, edge((2, 1), (4, 4)))
    assert not _segments_intersect(bottom, edge((5, 0), (6, 0)))


@pytest.mark.parametrize(
    "vertices, witness",
    [
        ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], "edges 0 and 2 intersect"),
        ([(2, 0), (4, 4), (4, 0), (0, 0), (0, 4)], "edges 0 and 2 intersect"),
        ([(0, 4), (2, 0), (4, 4), (4, 0), (0, 0)], "edges 0 and 3 intersect"),
        ([(0, 0), (4, 0), (2, 0), (2, 3)],
         "edges 0 and 1 fold back at Point(x=4, y=0)"),
    ],
    ids=["end-of-later-edge", "start-of-first-edge", "end-of-first-edge",
         "fold-back"],
)
def test_validate_self_intersection_witness(vertices, witness):
    report = validate([make_polygon("X", vertices)])
    assert [(v.kind, v.witness) for v in report.violations] == [
        ("self_intersection", witness)
    ]


def test_validate_duplicate():
    a = square("A", 0, 0, 4)
    # Same cycle, rotated start and reversed orientation.
    b = make_polygon("B", [(4, 4), (0, 4), (0, 0), (4, 0)][::-1])
    report = validate([a, b])
    assert not report.ok
    assert any(v.kind == "duplicate" for v in report.violations)


def test_parity_oracle_square():
    p = square("S", 0, 0, 4)
    top, bottom = top_bottom(p)
    assert parity_oracle(p, top) == 1
    assert parity_oracle(p, bottom) == 0


def test_parity_oracle_matches_assignment(small_corpus):
    for polygons in small_corpus[:8]:
        for p in polygons:
            for s in segments_of(p):
                assert parity_oracle(p, s) == parity(s)


def test_library_keeps_no_test_only_helpers():
    import ast
    import importlib
    import inspect
    import re
    from pathlib import Path

    import nestpoly
    import nestpoly.bench
    import nestpoly.errors
    import nestpoly.generator
    import nestpoly.geometry
    import nestpoly.instance_io
    import nestpoly.oracle
    import nestpoly.segments
    import nestpoly.sweep
    from nestpoly import NestingForest
    from nestpoly.segments import MaxSegment, SegmentDecomposition
    from nestpoly.sweep import StatusEntry, SweepStatus

    moved = (
        "satisfies_property_O", "check_terminal_monotone",
        "check_unique_cover", "count_N", "y_at", "parity_oracle",
        "winding_location", "Rel", "cmp_at", "shoelace_area", "signed_area2",
    )
    generator_api = ("GenStats", "generate_with_stats", "touches")
    wrappers = ("BenchRow", "rows_to_csv", "instance_document")
    for owner, names in (
        (nestpoly, moved + generator_api + wrappers
         + ("InternalOrderViolation",)),
        (nestpoly.errors, ("InternalOrderViolation",)),
        (nestpoly.bench, wrappers),
        (nestpoly.instance_io, wrappers),
        (nestpoly.generator, generator_api),
        (nestpoly.segments, moved),
        (nestpoly.oracle, moved + ("_half", "_third", "_frac")),
        (nestpoly.geometry, moved + ("rescaled", "_div2")),
        (MaxSegment, ("edges", "span_edges", "min_v", "max_v", "edge_at")),
        (SegmentDecomposition, ("connector_runs", "polygon_id", "polygon")),
        (StatusEntry, ("current_edge",)),
        (SweepStatus, ("assert_consistent", "in_order", "__len__")),
        (NestingForest, ("roots", "children", "depth")),
    ):
        for name in names:
            assert not hasattr(owner, name), (owner.__name__, name)
    for fn in (
        nestpoly.sweep.nesting_forest,
        nestpoly.sweep.nesting_forest_with_stats,
        nestpoly.sweep._sweep,
    ):
        assert "debug" not in inspect.signature(fn).parameters, fn.__name__
    for fn in (nestpoly.bench.run_benchmark, nestpoly.bench.disjoint_instance):
        assert "seed" not in inspect.signature(fn).parameters, fn.__name__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("nestpoly.ordering")
    # The oracle checks the decomposition and the sweep, so it reads
    # neither; the generator counts no touches, so it needs no oracle.
    for module, banned in (
        (nestpoly.oracle, {"segments", "sweep"}),
        (nestpoly.generator, {"oracle"}),
    ):
        with open(module.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                for name in names:
                    assert not set(name.split(".")) & banned, name

    # Every top-level function and class of the library is read by other
    # library code (its own definition and the re-export aside), by
    # perfbench, which also finds names by string, or is a README "Library"
    # entry point.
    def names_read(nodes, strings=False):
        out = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif strings and isinstance(node, ast.Constant):
                out.add(node.value)
        return out

    library = Path(nestpoly.__file__).resolve().parent
    root = library.parents[1]
    bodies = [
        ast.parse(path.read_text(encoding="utf-8")).body
        for path in sorted(library.glob("*.py"))
        if path.name != "__init__.py"
    ]
    outside = names_read(
        (ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted((root / "perfbench").glob("*.py"))),
        strings=True,
    )
    readme = (root / "README.md").read_text(encoding="utf-8")
    outside |= set(re.findall(r"\w+", readme.split("\n## Library\n")[1]))
    tops = [node for body in bodies for node in body]
    reads = [names_read([node]) for node in tops]
    unread = [
        node.name for i, node in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in outside
        and not any(node.name in r for j, r in enumerate(reads) if j != i)
    ]
    assert unread == []
