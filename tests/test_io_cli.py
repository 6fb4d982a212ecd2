"""JSON formats, serialization round-trips, and the command line tool."""

import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from xml.dom import minidom

import pytest

from nestpoly import (
    DegenerateAllCollinear,
    DuplicateConsecutiveVertex,
    Edge,
    GenConfig,
    ParityInconsistency,
    ParseError,
    Point,
    SemanticError,
    TooFewVertices,
    forest_document,
    generate,
    make_polygon,
    nesting_forest,
    parse_instance,
    serialize_forest,
    serialize_instance,
    transform,
)
from nestpoly.cli import main
from nestpoly.forest import NestingForest
from nestpoly.instance_io import parse_forest
from nestpoly.render import render_svg

from conftest import square

SRC = str(Path(__file__).resolve().parents[1] / "src")

TWO_SQUARES = json.dumps(
    {
        "polygons": [
            {"id": "O", "vertices": [[0, 0], [10, 0], [10, 10], [0, 10]]},
            {"id": "I", "vertices": [[2, 2], [8, 2], [8, 8], [2, 8]]},
        ]
    }
)

OVERLAPPING = json.dumps(
    {
        "polygons": [
            {"id": "A", "vertices": [[0, 0], [4, 0], [4, 4], [0, 4]]},
            {"id": "B", "vertices": [[2, 2], [6, 2], [6, 6], [2, 6]]},
        ]
    }
)


def test_parse_two_squares():
    polygons = parse_instance(TWO_SQUARES)
    assert [p.id for p in polygons] == ["O", "I"]
    assert polygons[0].area == 100


def test_parse_empty_list_rejected():
    with pytest.raises(SemanticError):
        parse_instance('{"polygons": []}')


def test_parse_exact_decimal():
    doc = '{"polygons": [{"id": "T", "vertices": [["2.50", 0], [4, 0], [3, "0.5"]]}]}'
    (p,) = parse_instance(doc)
    assert p.vertices[0].x == Fraction(5, 2)
    assert p.vertices[2].y == Fraction(1, 2)


def test_parse_rejects_floats_and_duplicates():
    with pytest.raises(SemanticError):
        parse_instance('{"polygons": [{"id": "T", "vertices": [[0.5, 0], [4, 0], [2, 2]]}]}')
    with pytest.raises(SemanticError):
        parse_instance(
            '{"polygons": [{"id": "T", "vertices": [[0, 0], [4, 0], [2, 2]]},'
            ' {"id": "T", "vertices": [[9, 9], [12, 9], [10, 11]]}]}'
        )


@pytest.mark.parametrize(
    "value, message",
    [
        ("1_0", "not an integer or finite decimal: '1_0'"),
        (" 5", "not an integer or finite decimal: ' 5'"),
        ("\u0663", "not an integer or finite decimal: '\u0663'"),
        ("1e5", "not an integer or finite decimal: '1e5'"),
        (0.5, "coordinates must be integers or finite-decimal strings"),
        (True, "coordinates must be integers or finite-decimal strings"),
        (None, "unsupported coordinate type: NoneType"),
    ],
    ids=["underscore", "space", "arabic-indic", "exponent", "float", "bool",
         "null"],
)
def test_parse_gate_rejects(value, message):
    if isinstance(value, str) and "e" not in value:
        int(value)  # int() alone would take it: the gate must come first.
    doc = json.dumps(
        {"polygons": [{"id": "T", "vertices": [[value, 0], [4, 0], [2, 3]]}]}
    )
    with pytest.raises(SemanticError) as exc:
        parse_instance(doc)
    assert str(exc.value) == f"polygon 'T': vertex #0: {message}"


def test_parse_gate_negative_decimals():
    for text in ("-0.5", "-0.50"):
        vertices = [[text, 0], [4, 0], [2, 3]]
        doc = json.dumps({"polygons": [{"id": "T", "vertices": vertices}]})
        (p,) = parse_instance(doc)
        assert p.vertices[0] == (Fraction(-1, 2), 0)
        assert (p.xs, p.ys, p.denominator) == ((-1, 8, 4), (0, 0, 6), 2)


def test_cli_long_decimal_exit_2(tmp_path, capsys):
    doc = json.dumps(
        {"polygons": [{"id": "T", "vertices": [
            ["0." + "1" * 5000, 0], [4, 0], [2, 3]]}]}
    )
    assert main(["nest", "-i", write(tmp_path, "long.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: polygon 'T': vertex #0: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "vertices, error, message",
    [
        ([[0, 0], [4, 0]], TooFewVertices, "2 vertices"),
        (
            [[0, 0], [4, 0], [4, 0], [0, 4]],
            DuplicateConsecutiveVertex,
            "vertex 1 repeats at Point(x=4, y=0)",
        ),
        (
            [[0, 0], [4, 0], [0, 4], [0, 0]],
            DuplicateConsecutiveVertex,
            "vertex 3 repeats at Point(x=0, y=0)",
        ),
        ([[0, 0], ["0.5", "0.5"], [2, 2]], DegenerateAllCollinear, "zero area"),
    ],
    ids=["too-few", "duplicate", "wrap-around-duplicate", "collinear"],
)
def test_parse_wraps_polygon_errors(vertices, error, message):
    doc = json.dumps({"polygons": [{"id": "A", "vertices": vertices}]})
    with pytest.raises(SemanticError) as exc:
        parse_instance(doc)
    assert str(exc.value) == f"polygon 'A': {message}"
    assert isinstance(exc.value.__cause__, error)


def test_parse_errors_in_document_order():
    # A polygon error comes before a schema error in a later polygon, and
    # after one in an earlier polygon, with decimal input as with integers.
    bad_polygon = {"id": "A", "vertices": [["0.5", 0], ["0.5", 0], [1, 1]]}
    bad_coordinate = {"id": "B", "vertices": [["1e5", 0], [1, 0], [1, 1]]}
    for first, second, message in [
        (bad_polygon, bad_coordinate,
         "polygon 'A': vertex 0 repeats at "
         "Point(x=Fraction(1, 2), y=0)"),
        (bad_coordinate, bad_polygon,
         "polygon 'B': vertex #0: not an integer or finite decimal: '1e5'"),
    ]:
        with pytest.raises(SemanticError) as exc:
            parse_instance(json.dumps({"polygons": [first, second]}))
        assert str(exc.value) == message


TRI = [[0, 0], [4, 0], [0, 4]]
DECIMAL_TRI = [["0.5", 0], [4, "0.25"], [0, 4]]
POLY = {"id": "p", "vertices": TRI}
DECIMAL_POLY = {"id": "p", "vertices": DECIMAL_TRI}
BAD_POLY = {"id": "p", "vertices": [["1e5", 0], [4, 0], [0, 4]]}


def _doc(*items, **top):
    return {"polygons": list(items), **top}


# Polygon-like objects in every position, and bad decimals and vertices at
# several positions, with the message each one gives.
MALFORMED = [
    ("id-is-polygon", _doc({"id": POLY, "vertices": TRI}),
     "polygon #0 needs a non-empty string id"),
    ("id-is-bad-polygon", _doc({"id": BAD_POLY, "vertices": TRI}),
     "polygon #0 needs a non-empty string id"),
    ("vertex-is-polygon", _doc({"id": "a", "vertices": [POLY, [4, 0], [0, 4]]}),
     "polygon 'a': vertex #0 must be an [x, y] pair"),
    ("coordinate-is-polygon",
     _doc({"id": "a", "vertices": [[0, 0], [4, DECIMAL_POLY], [0, 4]]}),
     "polygon 'a': vertex #1: unsupported coordinate type: dict"),
    ("x-is-polygon", _doc({"id": "a", "vertices": [[0, 0], [POLY, 4], [0, 4]]}),
     "polygon 'a': vertex #1: unsupported coordinate type: dict"),
    ("vertices-is-polygon", _doc({"id": "a", "vertices": POLY}),
     "polygon 'a': vertices must be a list"),
    ("vertices-is-decimal-polygon", _doc({"id": "a", "vertices": DECIMAL_POLY}),
     "polygon 'a': vertices must be a list"),
    ("item-is-list-of-polygons",
     _doc({"id": "a", "vertices": TRI}, [POLY, DECIMAL_POLY]),
     "polygon #1 is not an object"),
    ("item-is-string", _doc({"id": "a", "vertices": TRI}, "b"),
     "polygon #1 is not an object"),
    ("polygons-is-polygon", {"polygons": POLY},
     '"polygons" must be a non-empty list'),
    ("polygons-is-empty", {"polygons": [], "vertices": TRI},
     '"polygons" must be a non-empty list'),
    ("no-polygons-but-vertices", {"id": "a", "vertices": TRI},
     'top-level object must contain "polygons"'),
    ("top-level-list", [POLY], 'top-level object must contain "polygons"'),
    ("extra-bad-polygon-then-bad-decimal",
     _doc({"id": "a", "vertices": DECIMAL_TRI, "extra": BAD_POLY},
          {"id": "b", "vertices": [[0, 0], ["1.2.3", 0], [0, 4]]}),
     "polygon 'b': vertex #1: not an integer or finite decimal: '1.2.3'"),
    ("extra-decimal-polygon-then-duplicate",
     _doc({"id": "a", "vertices": TRI, "extra": DECIMAL_POLY},
          {"id": "a", "vertices": TRI}),
     "duplicate polygon id 'a'"),
    ("top-level-bad-vertices-then-bad-shape",
     _doc({"id": "a", "vertices": [[0, 0], [4, 0, 1], [0, 4]]},
          vertices=[["x", 0]], meta=BAD_POLY),
     "polygon 'a': vertex #1 must be an [x, y] pair"),
    ("bad-decimal-first-x", _doc({"id": "a", "vertices": [["1e5", 0], [4, 0], [0, 4]]}),
     "polygon 'a': vertex #0: not an integer or finite decimal: '1e5'"),
    ("bad-decimal-last-y", _doc({"id": "a", "vertices": [[0, 0], [4, 0], [0, "4."]]}),
     "polygon 'a': vertex #2: not an integer or finite decimal: '4.'"),
    ("bad-decimal-middle",
     _doc({"id": "a", "vertices": [[0, 0], ["0.5", ".5"], [0, 4]]}),
     "polygon 'a': vertex #1: not an integer or finite decimal: '.5'"),
    ("bad-decimal-second-polygon",
     _doc({"id": "a", "vertices": DECIMAL_TRI},
          {"id": "b", "vertices": [[0, 0], [4, 0], ["+1", 4]]}),
     "polygon 'b': vertex #2: not an integer or finite decimal: '+1'"),
    ("bad-decimal-after-good-same-string",
     _doc({"id": "a", "vertices": [["0.5", 0], [4, 0], [0, 4]]},
          {"id": "b", "vertices": [["0.5", 0], [4, 0], ["0.5.", 4]]}),
     "polygon 'b': vertex #2: not an integer or finite decimal: '0.5.'"),
    ("float-after-decimals",
     _doc({"id": "a", "vertices": [["0.5", 0], [4, 0.5], [0, 4]]}),
     "polygon 'a': vertex #1: coordinates must be integers or finite-decimal "
     "strings"),
    ("bool-coordinate", _doc({"id": "a", "vertices": [[0, 0], [True, 0], [0, 4]]}),
     "polygon 'a': vertex #1: coordinates must be integers or finite-decimal "
     "strings"),
    ("null-coordinate", _doc({"id": "a", "vertices": [[0, 0], [4, 0], [0, None]]}),
     "polygon 'a': vertex #2: unsupported coordinate type: NoneType"),
    ("list-coordinate", _doc({"id": "a", "vertices": [[0, 0], [[4], 0], [0, 4]]}),
     "polygon 'a': vertex #1: unsupported coordinate type: list"),
    ("vertex-of-three", _doc({"id": "a", "vertices": [[0, 0], [4, 0], [0, 4, 1]]}),
     "polygon 'a': vertex #2 must be an [x, y] pair"),
    ("vertex-of-one", _doc({"id": "a", "vertices": [[0], [4, 0], [0, 4]]}),
     "polygon 'a': vertex #0 must be an [x, y] pair"),
    ("vertex-is-string", _doc({"id": "a", "vertices": ["ab", [4, 0], [0, 4]]}),
     "polygon 'a': vertex #0 must be an [x, y] pair"),
    ("bad-decimal-before-bad-shape", _doc({"id": "a", "vertices": [[0, "1e5"], [4]]}),
     "polygon 'a': vertex #0: not an integer or finite decimal: '1e5'"),
    ("vertices-missing", _doc({"id": "a"}), "polygon 'a': vertices must be a list"),
    ("vertices-null", _doc({"id": "a", "vertices": None}),
     "polygon 'a': vertices must be a list"),
    ("empty-id-before-bad-vertices", _doc({"id": "", "vertices": [[0]]}),
     "polygon #0 needs a non-empty string id"),
    ("duplicate-id-of-valid-polygons", _doc(POLY, DECIMAL_POLY),
     "duplicate polygon id 'p'"),
    ("int-id-with-valid-vertices", _doc({"id": 7, "vertices": TRI}),
     "polygon #0 needs a non-empty string id"),
    ("empty-id-after-valid-polygon", _doc(POLY, {"id": "", "vertices": TRI}),
     "polygon #1 needs a non-empty string id"),
    ("duplicate-id-with-bad-vertices",
     _doc({"id": "a", "vertices": TRI}, {"id": "a", "vertices": [["1e5", 0]]}),
     "duplicate polygon id 'a'"),
    ("too-few-then-bad-decimal",
     _doc({"id": "a", "vertices": [["0.5", 0], [4, 0]]},
          {"id": "b", "vertices": [["1e5", 0]]}),
     "polygon 'a': 2 vertices"),
    ("repeat-then-not-an-object",
     _doc({"id": "a", "vertices": [["0.5", 0], ["0.50", 0], [0, 4]]}, 7),
     "polygon 'a': vertex 0 repeats at "
     "Point(x=Fraction(1, 2), y=0)"),
]


@pytest.mark.parametrize(
    "doc, message",
    [pytest.param(doc, message, id=name) for name, doc, message in MALFORMED],
)
def test_parse_malformed_documents(doc, message):
    with pytest.raises(SemanticError) as exc:
        parse_instance(json.dumps(doc))
    assert type(exc.value) is SemanticError
    assert str(exc.value) == message


def test_parse_denominator_comes_from_polygons_only():
    # Decimal strings outside the polygons' vertex lists, even in objects
    # shaped like polygons, leave the denominator alone.
    doc = _doc(
        {"id": "a", "vertices": [["0.5", 0], [2, 0], [0, 2]],
         "extra": {"id": "q", "vertices": [["0.001", 0], [1, 0], [0, 1]]}},
        meta={"id": "m", "vertices": [["0.0625", 0], [1, 0], [0, 1]]},
    )
    (p,) = parse_instance(json.dumps(doc))
    assert (p.xs, p.ys, p.denominator) == ((1, 4, 0), (0, 0, 4), 2)
    # A polygon of ints only, beside a decimal one, is scaled by L too.
    doc = _doc({"id": "a", "vertices": [["0.25", 0], [2, 0], [0, "0.5"]]},
               {"id": "b", "vertices": [[0, 0], [3, 0], [0, 3]]})
    a, b = parse_instance(json.dumps(doc))
    assert (a.xs, a.ys, a.denominator) == ((1, 8, 0), (0, 0, 2), 4)
    assert (b.xs, b.ys, b.denominator) == ((0, 12, 0), (0, 0, 12), 4)
    # Strings that reduce to integers give int columns over 1.
    doc = _doc({"id": "a", "vertices": [["5", "-3"], [7, "-3"], ["5.0", 2]]})
    (p,) = parse_instance(json.dumps(doc))
    assert (p.xs, p.ys, p.denominator) == ((5, 7, 5), (-3, -3, 2), 1)
    assert {type(c) for c in p.xs + p.ys} == {int}


def test_parse_reads_polygon_keys_beside_polygons():
    # The top-level object is read as the document even with an id and
    # vertices of its own, and a polygon that also has a "polygons" key is
    # read as a polygon, its other keys unread.
    (p,) = parse_instance(json.dumps(_doc(POLY, id="top", vertices=TRI)))
    assert (p.id, p.xs, p.ys, p.denominator) == ("p", (0, 4, 0), (0, 0, 4), 1)
    doc = _doc({"id": "a", "vertices": TRI, "polygons": [DECIMAL_POLY]})
    (p,) = parse_instance(json.dumps(doc))
    assert (p.id, p.xs, p.ys, p.denominator) == ("a", (0, 4, 0), (0, 0, 4), 1)


def _traced_bytes(fn, *args):
    """(peak, held): traced bytes at fn's peak, and when it returns with
    its result alive."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841 (alive for the second reading)
        held, peak = tracemalloc.get_traced_memory()
        return peak, held
    finally:
        tracemalloc.stop()


def test_parse_peaks_below_json_loads():
    # Each polygon's vertex lists become columns while the decoder runs, so
    # parse never holds the whole document tree that json.loads returns.
    text = serialize_instance(
        generate(GenConfig(seed=1, n_roots=300, max_depth=2))
    )
    parse_peak = _traced_bytes(parse_instance, text)[0]
    assert parse_peak < _traced_bytes(json.loads, text)[0]


def test_parse_keeps_no_dict_per_polygon():
    # Above what it returns, parse holds a few pointers per polygon, the
    # set of ids and one polygon's vertex lists; one dict per polygon (184
    # bytes or more) would not fit. The input is a str: a caller's bytes
    # stay alive for the whole call on Python 3.10.
    polygons = generate(GenConfig(seed=1, n_roots=300, max_depth=2))
    peak, held = _traced_bytes(parse_instance, serialize_instance(polygons))
    assert peak - held < 100 * len(polygons)


def test_parse_drops_each_decimal_row_once_built(monkeypatch):
    # Each row of decimal strings is let go once its polygon is built, so
    # memory does not grow while the rows are scaled to int columns; were
    # the rows kept to the end, it would grow by about 50 bytes per vertex.
    import nestpoly.instance_io

    held = []
    build = nestpoly.instance_io.polygon_from_columns

    def traced(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return build(*args)

    monkeypatch.setattr(nestpoly.instance_io, "polygon_from_columns", traced)
    polygons = generate(GenConfig(seed=1, n_roots=100, max_depth=2))
    text = serialize_instance(transform(polygons, scale=Fraction(3, 1000)))
    _traced_bytes(parse_instance, text)
    assert len(held) == len(polygons)
    assert held[-1] < held[0]


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_instance('{"polygons": [')
    assert "line" in str(exc.value)


def test_round_trip():
    polygons = parse_instance(TWO_SQUARES)
    text = serialize_instance(polygons)
    again = parse_instance(text)
    assert [p.vertices for p in again] == [p.vertices for p in polygons]
    assert serialize_instance(again) == text


def test_round_trip_rational_coordinates():
    p = make_polygon("R", [("0.5", 0), ("4.25", 0), (2, "3.1")])
    again = parse_instance(serialize_instance([p]))
    assert again[0].vertices == p.vertices


@pytest.mark.parametrize(
    "stats", [None, {}, {"m": 3, "n": 9, "nested": {"ids": ["a", "b"]}}]
)
def test_serialize_forest_matches_json_dumps(stats):
    forest = NestingForest(
        {
            'quo"te': None,
            "back\\slash": 'quo"te',
            "caf\u00e9 \u4e2d": "back\\slash",
            "tab\tnew\nline": None,
            "\U0001f600": "tab\tnew\nline",
        }
    )
    want = json.dumps(forest_document(forest, stats), indent=2) + "\n"
    assert serialize_forest(forest, stats) == want
    empty = NestingForest({})
    assert serialize_forest(empty) == json.dumps(
        forest_document(empty), indent=2
    ) + "\n"
    assert parse_forest(serialize_forest(forest, stats)) == forest


def test_parse_forest_round_trip(small_corpus):
    for polygons in small_corpus:
        forest = nesting_forest(polygons)
        text = serialize_forest(forest)
        assert parse_forest(text).parent == forest.parent
        assert parse_forest(text.encode("utf-8")).parent == forest.parent


NO_FOREST = 'forest document must contain a "forest" array'
BAD_ROW = 'forest row #%d needs a string "id" and a "parent" that is an id or null'


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], NO_FOREST),
        ({}, NO_FOREST),
        ({"forest": {"id": "A"}}, NO_FOREST),
        ({"forest": [{"id": "A"}]}, BAD_ROW % 0),
        ({"forest": [{"id": "A", "parent": None}, {"id": 1, "parent": None}]},
         BAD_ROW % 1),
        ({"forest": [{"id": "A", "parent": 0}]}, BAD_ROW % 0),
        ({"forest": [{"id": "P0", "parent": None},
                     {"id": "P0", "parent": None}]},
         "duplicate forest id 'P0'"),
        ({"forest": [{"id": "A", "parent": "Z"}]},
         "parent 'Z' of 'A' is not in the forest"),
        ({"forest": [{"id": "A", "parent": "A"}]},
         "parent links of 'A' form a cycle"),
        ({"forest": [{"id": "R", "parent": None}, {"id": "A", "parent": "B"},
                     {"id": "B", "parent": "C"}, {"id": "C", "parent": "A"}]},
         "parent links of 'A' form a cycle"),
    ],
    ids=["array", "no-forest", "forest-not-list", "no-parent", "id-not-str",
         "parent-not-str", "duplicate", "missing-parent", "self-loop",
         "three-cycle"],
)
def test_parse_forest_rejects(doc, message):
    with pytest.raises(SemanticError) as exc:
        parse_forest(json.dumps(doc))
    assert str(exc.value) == message


def test_nest_builds_no_point_or_edge(monkeypatch, tmp_path, small_corpus):
    polygons = small_corpus[3]
    instances = [
        serialize_instance(polygons),
        serialize_instance(transform(polygons, scale=Fraction(3, 1000))),
    ]
    built = {"Point": 0, "Edge": 0}
    for cls in (Point, Edge):
        original = cls.__new__

        def counting(c, *args, _original=original):
            built[c.__name__] += 1
            return _original(c, *args)

        monkeypatch.setattr(cls, "__new__", counting)
    for k, text in enumerate(instances):
        path = tmp_path / f"in{k}.json"
        path.write_text(text)
        assert main(["nest", "-i", str(path), "-o", str(tmp_path / "out")]) == 0
    assert built == {"Point": 0, "Edge": 0}
    # The counters do see the views, which are built once and then kept.
    p = make_polygon("Z", [(0, 0), (4, 0), (4, 2), (6, 2), (0, 6)])
    assert p.edges is p.edges and p.vertices is p.vertices
    assert built == {"Point": 5, "Edge": 5}


def test_nest_builds_no_fraction(monkeypatch, tmp_path, small_corpus):
    polygons = small_corpus[3]
    instances = [
        serialize_instance(polygons),
        serialize_instance(transform(polygons, scale=Fraction(3, 1000))),
    ]
    for k, text in enumerate(instances):
        parsed = parse_instance(text)
        for p in parsed:
            assert all(type(c) is int for c in p.xs + p.ys)
            d = p.denominator
            assert p.vertices == tuple(
                (Fraction(x, d), Fraction(y, d)) for x, y in zip(p.xs, p.ys)
            )
        assert {p.denominator for p in parsed} == {1 if k == 0 else 1000}
    built = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for k, text in enumerate(instances):
        path = tmp_path / f"in{k}.json"
        path.write_text(text)
        assert main(["nest", "-i", str(path), "-o", str(tmp_path / "out")]) == 0
    assert built == [0]
    # The counter does see the Fractions that an input-unit view makes.
    assert parse_instance(instances[1])[0].vertices
    assert built[0] > 0


REJECTED_PARITIES = [
    ([[0, 0], [4, 0], [4, 5], [4, 3], [2, 4]],
     "topmost vertex Point(x=4, y=5) is not a convex corner that the "
     "boundary passes once"),
    ([[1, 0], [1, 4], [4, 0], [1, 4], [0, 0]],
     "topmost vertex Point(x=1, y=4) is not a convex corner that the "
     "boundary passes once"),
    ([[2, 4], [0, 1], [0, 4], [2, 0], [1, 4], [0, 0], [0, 4]],
     "topmost vertex Point(x=0, y=4) is not a convex corner that the "
     "boundary passes once"),
    # The bowtie, from its top-left vertex: the row's ends are 0 and 2, so
    # the turn at vertex 0 reads its edge in from vertex -1.
    ([[0, 2], [0, 0], [2, 2], [2, 0]],
     "topmost vertex Point(x=0, y=2) is not a convex corner that the "
     "boundary passes once"),
    # The top row is found at x = 4, 0, 0: the leftmost vertex repeats
    # after a larger x.
    ([[4, 4], [0, 4], [0, 0], [2, 0], [0, 4], [-2, 0], [-2, -2], [6, -2]],
     "topmost vertex Point(x=0, y=4) is not a convex corner that the "
     "boundary passes once"),
    # The bowtie of the benchmark's model-breaking instances.
    ([[0, 0], [2, 2], [2, 0], [0, 2]],
     "topmost vertex Point(x=0, y=2) is not a convex corner that the "
     "boundary passes once"),
]


def test_witnesses_in_input_units(tmp_path, capsys):
    # The topmost vertex lies on three maximal segments: the boundary passes
    # through it twice. The decimal instance is the integer one halved.
    integer = [[0, 3], [1, 1], [0, 3], [4, 4], [3, 4], [1, 0], [3, 4]]
    decimal = [["0", "1.5"], ["0.5", "0.5"], ["0", "1.5"], ["2", "2"],
               ["1.5", "2"], ["0.5", "0"], ["1.5", "2"]]

    def message(vertices):
        doc = json.dumps({"polygons": [{"id": "P", "vertices": vertices}]})
        with pytest.raises(ParityInconsistency) as exc:
            nesting_forest(parse_instance(doc))
        return str(exc.value)

    template = (
        "polygon 'P': topmost vertex {} is not a convex corner that the "
        "boundary passes once"
    )
    assert message(integer) == template.format(Point(3, 4))
    assert message(decimal) == template.format(Point(Fraction(3, 2), 2))
    # The other parity rejections that a vertex cycle can reach.
    for vertices, text in REJECTED_PARITIES:
        assert message(vertices) == f"polygon 'P': {text}"
    # A model failure ends nest or oracle with exit 1 and one line. The
    # oracle finds no point inside the bowtie, not even on a vertical cut.
    unparitied = {"id": "P", "vertices": REJECTED_PARITIES[0][0]}
    bowtie = {"id": "P", "vertices": REJECTED_PARITIES[-1][0]}
    twins = [{"id": pid, "vertices": [[0, 0], [4, 0], [4, 4], [0, 4]]}
             for pid in ("A", "B")]
    for command, polygons, text in (
        ("nest", [unparitied], f"polygon 'P': {REJECTED_PARITIES[0][1]}"),
        ("nest", [bowtie], f"polygon 'P': {REJECTED_PARITIES[-1][1]}"),
        ("nest", twins, "segments of polygons 'B' and 'A' coincide at x=0"),
        ("oracle", [bowtie], "no interior point found for 'P'"),
    ):
        inst = write(tmp_path, "in.json", json.dumps({"polygons": polygons}))
        assert main([command, "-i", inst]) == 1
        assert capsys.readouterr() == ("", f"error: {text}\n")
    doc = json.dumps(
        {"polygons": [{"id": "D", "vertices": [
            ["0.5", 0], ["2.5", 0], ["2.5", 0], ["0.5", "1.5"]]}]}
    )
    with pytest.raises(SemanticError) as exc:
        parse_instance(doc)
    assert str(exc.value) == (
        "polygon 'D': vertex 1 repeats at "
        "Point(x=Fraction(5, 2), y=0)"
    )
    assert isinstance(exc.value.__cause__, DuplicateConsecutiveVertex)


def test_forest_document_sorted():
    forest = NestingForest({"b": "a", "a": None, "c": "a"})
    doc = json.loads(serialize_forest(forest))
    assert [row["id"] for row in doc["forest"]] == ["a", "b", "c"]
    assert doc["forest"][0] == {"id": "a", "parent": None, "depth": 0}
    assert doc["forest"][1]["depth"] == 1


def test_render_svg_contains_polygons(nested_squares):
    svg = render_svg(nested_squares)
    assert "<svg" in svg
    assert svg.count("<polygon") == 2
    assert ">I(1)<" in svg and ">O(0)<" in svg


def test_render_svg_escapes_ids():
    svg = render_svg([square("a<b&c", 0, 0, 10), square('"q">', 2, 2, 6)])
    labels = minidom.parseString(svg).getElementsByTagName("text")
    assert [t.firstChild.data for t in labels] == ["a<b&c(0)", '"q">(1)']


UNCARRIABLE_IDS = {"a\ud800b": "a\ufffdb", "a\u0001b": "a\ufffdb"}


@pytest.mark.parametrize("pid", UNCARRIABLE_IDS, ids=ascii)
def test_render_svg_replaces_what_xml_cannot_carry(pid):
    svg = render_svg([square(pid, 0, 0, 10), square("a\U0001f600\tb", 2, 2, 6)])
    doc = minidom.parseString(svg.encode("utf-8"))
    labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert labels == [UNCARRIABLE_IDS[pid] + "(0)", "a\U0001f600\tb(1)"]


# CLI ------------------------------------------------------------------------


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_nest_nested_squares(tmp_path, capsys):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    out = tmp_path / "forest.json"
    assert main(["nest", "-i", inst, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = {row["id"]: row for row in doc["forest"]}
    assert rows["I"]["parent"] == "O"
    assert rows["O"]["parent"] is None


def test_cli_nest_stats(tmp_path):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    out = tmp_path / "forest.json"
    assert main(["nest", "-i", inst, "-o", str(out), "--stats"]) == 0
    stats = json.loads(out.read_text())["stats"]
    assert stats["m"] == 2 and stats["N"] == 4 and stats["events"] == 8
    assert stats["elapsed_ns"] > 0


def test_cli_nest_validate_rejects_overlap(tmp_path, capsys):
    inst = write(tmp_path, "in.json", OVERLAPPING)
    assert main(["nest", "-i", inst, "--validate"]) == 1
    assert "interior_overlap" in capsys.readouterr().err


def test_cli_parse_error_exit_2(tmp_path, capsys):
    inst = write(tmp_path, "bad.json", "{nope")
    assert main(["nest", "-i", inst]) == 2
    assert main(["nest", "-i", str(tmp_path / "missing.json")]) == 2


def test_cli_inputs_not_utf8(tmp_path, capsys, monkeypatch):
    latin1 = TWO_SQUARES.replace('"O"', '"\u00d6"').encode("latin-1")
    message = (
        f"input is not UTF-8: byte {latin1.index(0xD6)} cannot be decoded"
    )
    with pytest.raises(ParseError, match=message):
        parse_instance(latin1)
    with pytest.raises(ParseError, match=message):
        parse_forest(latin1)
    bad = tmp_path / "latin1.json"
    bad.write_bytes(latin1)
    good = write(tmp_path, "in.json", TWO_SQUARES)
    for argv in (
        ["nest", "-i", str(bad)],
        ["nest", "-i", "-"],
        ["render", "-i", good, "--forest", str(bad)],
        ["render", "-i", good, "--forest", "-"],
        ["gen", "--config", str(bad)],
        ["gen", "--config", "-"],
    ):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(latin1)))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def stdin_of(monkeypatch, text):
    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8")))
    )


def test_cli_every_input_reads_stdin(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    forest = serialize_forest(nesting_forest(parse_instance(TWO_SQUARES)))
    svg = render_svg(parse_instance(TWO_SQUARES), parse_forest(forest))
    stdin_of(monkeypatch, forest)
    assert main(["render", "-i", inst, "--forest", "-"]) == 0
    assert capsys.readouterr().out == svg
    stdin_of(monkeypatch, TWO_SQUARES)
    forest_file = write(tmp_path, "f.json", forest)
    assert main(["render", "-i", "-", "--forest", forest_file]) == 0
    assert capsys.readouterr().out == svg
    config = {"seed": 4, "n_roots": 2, "max_depth": 1}
    stdin_of(monkeypatch, json.dumps(config))
    assert main(["gen", "--config", "-"]) == 0
    assert capsys.readouterr().out == serialize_instance(
        generate(GenConfig(**config))
    )


def test_cli_stdin_read_twice_exit_2(capsys, monkeypatch):
    # The instance takes all of stdin, so the forest reads empty input.
    stdin_of(monkeypatch, TWO_SQUARES)
    assert main(["render", "-i", "-", "--forest", "-"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid JSON at line 1 column 1: Expecting value\n"
    )


def test_cli_output_in_missing_directory(tmp_path, capsys):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    out = str(tmp_path / "missing" / "out")
    for argv in (
        ["nest", "-i", inst],
        ["oracle", "-i", inst],
        ["render", "-i", inst],
        ["gen", "--seed", "1"],
    ):
        assert main(argv + ["-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1


def test_cli_oracle_matches_nest(tmp_path):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["nest", "-i", inst, "-o", str(a)]) == 0
    assert main(["oracle", "-i", inst, "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_cli_validate(tmp_path, capsys):
    good = write(tmp_path, "good.json", TWO_SQUARES)
    bad = write(tmp_path, "bad.json", OVERLAPPING)
    assert main(["validate", "-i", good]) == 0
    assert main(["validate", "-i", bad]) == 1


def test_cli_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["gen", "--seed", "42", "--roots", "2", "--depth", "1"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert main(["validate", "-i", str(a)]) == 0
    # The child-count and shape flags reach GenConfig; a lone
    # --children-max keeps the default lower bound of 1.
    args = ["gen", "--seed", "5", "--roots", "2", "--depth", "2",
            "--shapes", "star,staircase"]
    for flags, children in (
        (["--children-min", "2", "--children-max", "3"], (2, 3)),
        (["--children-max", "3"], (1, 3)),
    ):
        assert main(args + flags + ["-o", str(a)]) == 0
        assert a.read_text() == serialize_instance(generate(GenConfig(
            seed=5, n_roots=2, max_depth=2, children_per_node=children,
            shape_mix={"star": 1, "staircase": 1},
        )))


@pytest.mark.parametrize(
    "config, flags, children",
    [
        (None, ["--children-min", "3"], (3, 3)),
        (None, ["--children-min", "0"], (0, 2)),
        (None, ["--children-max", "0"], (0, 0)),
        ([2, 4], ["--children-min", "3"], (3, 4)),
        ([2, 4], ["--children-min", "5"], (5, 5)),
        ([2, 4], ["--children-max", "3"], (2, 3)),
        ([2, 4], ["--children-max", "1"], (1, 1)),
        ([3, 1], ["--children-max", "5"], (3, 5)),
        ([2, 4], ["--children-min", "0", "--children-max", "1"], (0, 1)),
    ],
)
def test_cli_gen_children_flags(tmp_path, config, flags, children):
    # A flag replaces its own bound of the file's pair, or of (1, 2) when
    # there is none; a lone flag takes the other bound along rather than
    # leave the pair inverted.
    args = ["gen", "--seed", "3", "--roots", "2", "--depth", "2"]
    if config is not None:
        cfg = write(tmp_path, "cfg.json", json.dumps({"children_per_node": config}))
        args += ["--config", cfg]
    out = tmp_path / "out.json"
    assert main(args + flags + ["-o", str(out)]) == 0
    assert out.read_text() == serialize_instance(generate(GenConfig(
        seed=3, n_roots=2, max_depth=2, children_per_node=children,
    )))


@pytest.mark.parametrize(
    "config, flags",
    [
        (None, ["--children-min", "3", "--children-max", "2"]),
        ([2, 4], ["--children-min", "3", "--children-max", "2"]),
        (None, ["--children-min", "-1"]),
        ([1, "x"], ["--children-min", "3"]),
        ([1, 2, 3], ["--children-max", "3"]),
    ],
)
def test_cli_gen_children_flags_exit_2(tmp_path, capsys, config, flags):
    args = ["gen"]
    if config is not None:
        cfg = write(tmp_path, "cfg.json", json.dumps({"children_per_node": config}))
        args += ["--config", cfg]
    assert main(args + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid generator config: children_per_node")
    assert err.count("\n") == 1


def test_cli_gen_shapes_naming_no_shape(capsys):
    assert main(["gen", "--shapes", ","]) == 2
    assert capsys.readouterr().err == (
        "error: invalid generator config: shape_mix names no shape\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--roots", "100", "--span", "100"],
         "coordinate_span 100 too small for 100 roots"),
        (["--depth", "3", "--children-min", "5", "--children-max", "5",
          "--span", "200"],
         "no room for 5 children at depth 2; increase coordinate_span"),
        # 3 children fit at this span; 4 fail the width check.
        (["--depth", "1", "--children-min", "4", "--children-max", "4",
          "--shapes", "convex", "--span", "100"],
         "no room for 4 children at depth 1; increase coordinate_span"),
    ],
    ids=["roots", "children", "children-width"],
)
def test_cli_gen_generation_failed_exit_1(capsys, flags, message):
    assert main(["gen"] + flags) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_gen_deeper_than_the_recursion_limit(tmp_path):
    # One child per polygon, 1200 levels: placement keeps its own stack.
    out = tmp_path / "deep.json"
    forest = tmp_path / "forest.json"
    assert main([
        "gen", "--roots", "1", "--depth", "1200", "--children-min", "1",
        "--children-max", "1", "--shapes", "convex", "--span",
        str(10**400), "-o", str(out),
    ]) == 0
    assert len(parse_instance(out.read_text())) == 1201
    assert main(["nest", "-i", str(out), "-o", str(forest)]) == 0
    rows = json.loads(forest.read_text())["forest"]
    assert max(row["depth"] for row in rows) == 1200


def test_cli_gen_config_file(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.json",
        json.dumps({"n_roots": 2, "max_depth": 1, "touching_prob": 1.0}),
    )
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "7", "--config", cfg, "-o", str(out)]) == 0
    assert main(["validate", "-i", str(out)]) == 0
    assert len(json.loads(out.read_text())["polygons"]) > 2


def test_cli_render(tmp_path):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    forest = tmp_path / "forest.json"
    svg = tmp_path / "out.svg"
    assert main(["nest", "-i", inst, "-o", str(forest)]) == 0
    assert main(
        ["render", "-i", inst, "--forest", str(forest), "-o", str(svg)]
    ) == 0
    assert "<svg" in svg.read_text()


@pytest.mark.parametrize("pid", UNCARRIABLE_IDS, ids=ascii)
def test_cli_render_replaces_what_xml_cannot_carry(tmp_path, pid):
    inst = write(tmp_path, "in.json", serialize_instance([square(pid, 0, 0, 4)]))
    svg = tmp_path / "out.svg"
    assert main(["render", "-i", inst, "-o", str(svg)]) == 0
    labels = minidom.parse(str(svg)).getElementsByTagName("text")
    assert labels[0].firstChild.data == UNCARRIABLE_IDS[pid] + "(0)"


def test_cli_render_malformed_forest_rows(tmp_path, capsys):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    malformed = (
        {"forest": [{"id": "O"}]},
        {"forest": [{"parent": None}]},
        {"forest": [{"id": "O", "parent": "Z"}]},
        {"forest": [{"id": "O", "parent": None}, {"id": "I", "parent": "O"},
                    {"id": "O", "parent": "I"}]},
        {"forest": [{"id": "O", "parent": "I"}, {"id": "I", "parent": "O"}]},
        {"rows": []},
    )
    for doc in malformed:
        forest = write(tmp_path, "forest.json", json.dumps(doc))
        assert main(["render", "-i", inst, "--forest", forest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(SemanticError) as exc:
            parse_forest(json.dumps(doc))
        assert err == f"error: {exc.value}\n"


def test_cli_render_forest_missing_a_polygon(tmp_path, capsys):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    rows = [{"id": "O", "parent": None, "depth": 0}]
    forest = write(tmp_path, "forest.json", json.dumps({"forest": rows}))
    assert main(["render", "-i", inst, "--forest", forest]) == 2
    err = capsys.readouterr().err
    assert err == "error: forest has no row for polygon 'I'\n"


@pytest.mark.parametrize("reader", ["instance", "forest", "config"])
def test_cli_json_errors_read_alike(tmp_path, capsys, reader):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    bad = write(tmp_path, "bad.json", '{"a": 1,}')
    # The decoder's wording for a trailing comma changed in Python 3.13.
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads('{"a": 1,}')
    exc = decoded.value
    deep = write(tmp_path, "deep.json", "[" * 200000 + "]" * 200000)
    long_int = write(tmp_path, "long.json", "[" + "9" * 5000 + "]")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff{"a": 1}')
    missing = str(tmp_path / "missing.json")
    argv = {
        "instance": ["nest", "-i"],
        "forest": ["render", "-i", inst, "--forest"],
        "config": ["gen", "--config"],
    }[reader]
    for path, message in (
        (bad, f"invalid JSON at line 1 column {exc.colno}: {exc.msg}"),
        (deep, "invalid JSON: nested too deeply"),
        (long_int, "invalid JSON: integer over "
                   f"{sys.get_int_max_str_digits()} digits"),
        (str(not_utf8), "input is not UTF-8: byte 0 cannot be decoded"),
        (missing, f"cannot read {missing}: [Errno 2] No such file or "
                  f"directory: {missing!r}"),
    ):
        assert main(argv + [path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([[0, 0], [10**400, 0], [0, 1]],
         "cannot render polygon 'T': a coordinate is beyond float range"),
        ([[-(10**308), 0], [10**308, 0], [0, 1]],
         "cannot render: the drawing's width is beyond float range"),
        ([[10**308, 0], [10**308 + 10**306, 0], [10**308, 1]],
         "cannot render: the label of 'T' is beyond float range"),
    ],
    ids=["coordinate", "width", "label"],
)
def test_cli_render_beyond_float_range(tmp_path, capsys, vertices, message):
    doc = {"polygons": [{"id": "T", "vertices": vertices}]}
    inst = write(tmp_path, "in.json", json.dumps(doc))
    assert main(["nest", "-i", inst, "-o", str(tmp_path / "f.json")]) == 0
    assert main(["render", "-i", inst]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "config",
    [
        {"children_per_node": 5},
        {"children_per_node": [1, 2, 3]},
        {"children_per_node": [1, True]},
        {"n_roots": 1.5},
        {"coordinate_span": "x"},
        {"coordinate_span": 1e9},
        {"seed": [1]},
        {"touching_prob": "0.5"},
        {"touching_prob": True},
        {"shape_mix": {"convex": True}},
        {"shape_mix": {"convex": "2"}},
        {"shape_mix": {"convex": float("inf")}},
        {"shape_mix": {"convex": 1, "star": float("nan")}},
        {"shape_mix": {"convex": 1e308, "star": 1e308}},
        {"shape_mix": "convex"},
        {"shape_mix": {"convex": 0}},
        [1, 2],
    ],
    ids=json.dumps,
)
def test_cli_gen_config_of_wrong_type_exit_2(tmp_path, capsys, config):
    cfg = write(tmp_path, "cfg.json", json.dumps(config))
    assert main(["gen", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid generator config: ")
    assert err.count("\n") == 1


def run_module(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "nestpoly", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_m_nestpoly(tmp_path):
    inst = write(tmp_path, "in.json", TWO_SQUARES)
    done = run_module("nest", "-i", inst, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = {row["id"]: row for row in json.loads(done.stdout)["forest"]}
    assert rows["I"]["parent"] == "O"
    rows = [{"id": "O"}]
    forest = write(tmp_path, "forest.json", json.dumps({"forest": rows}))
    done = run_module("render", "-i", inst, "--forest", forest, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_cli_bench_sizes_not_integers(capsys):
    assert main(["bench", "--sizes", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_bench_sizes_zero(capsys):
    assert main(["bench", "--sizes", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sizes ") and err.count("\n") == 1


def test_cli_bench_sizes_negative(capsys):
    assert main(["bench", "--sizes", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sizes ") and err.count("\n") == 1


def test_cli_bench_repeat_zero(capsys):
    assert main(["bench", "--sizes", "16", "--repeat", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --repeat ") and err.count("\n") == 1


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(
        ["bench", "--sizes", "16,32", "--shape", "convex", "--repeat", "2",
         "-o", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,n,N,elapsed_ns_sweep,elapsed_ns_oracle"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [16, 32]
    for r in rows:
        # Convex polygons decompose into exactly two segments: N = 2m.
        assert int(r[2]) == 2 * int(r[0])
    assert int(rows[0][1]) < int(rows[1][1])
