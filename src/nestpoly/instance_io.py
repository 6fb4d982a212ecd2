"""JSON (de)serialization of instances and nesting forests.

Instance document: {"polygons": [{"id": str, "vertices": [[x, y], ...]}]}
where x and y are JSON integers or finite-decimal strings; both parse
exactly. Forest document: {"forest": [{"id", "parent", "depth"}, ...]}
sorted by id, with an optional "stats" object. Serialization is
byte-deterministic for a given instance.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ContainmentCycle, InputError, ParseError, SemanticError
from .forest import NestingForest
from .geometry import Coord, Polygon, decimal_ratio, polygon_from_columns


def load_json(text, object_hook=None):
    """json.loads of str or UTF-8 bytes. Raises ParseError for bytes that
    are not UTF-8, malformed JSON (with line and column), an integer too
    long for int() or nesting too deep; object_hook goes to json.loads.
    """
    text = _decode(text)
    try:
        return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError:  # int() refuses a literal this long
        most = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: integer over {most} digits") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _decode(text) -> str:
    """text itself if str, else its bytes decoded as UTF-8 or ParseError."""
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"input is not UTF-8: byte {exc.start} cannot be decoded"
            ) from exc
    return text


def parse_instance(text) -> List[Polygon]:
    """Parse an instance document from str or bytes.

    Every polygon comes out over one denominator L, the least common
    multiple of the denominators of the polygons' decimal strings (1 for
    JSON ints alone). A coordinate costs a class check and, for a string, a
    table probe; only a new string is reduced, with int arithmetic and no
    Fraction. When any string is used, every column is scaled by one table
    of the distinct values, each times L.

    Raises ParseError for input that load_json rejects, and SemanticError
    for schema violations such as duplicate ids or too few vertices.
    """
    ratios: Dict[str, Tuple[int, int]] = {}

    def fold(obj: dict):
        # A polygon with valid vertices becomes its _Row, so no dict per
        # polygon outlives decoding; _read_rows reports on the rest. The
        # top-level object keeps its dict.
        pid = obj.get("id")
        if isinstance(pid, str) and pid and "polygons" not in obj:
            try:
                return _row(pid, obj.get("vertices"), ratios)
            except ValueError:
                pass
        return obj

    # Each input form is let go once the next is built: bytes before the
    # decoder runs (a caller that passes them straight in keeps no
    # reference on CPython 3.11+), the text once it returns, each row once
    # its polygon is built.
    text = _decode(text)
    doc = load_json(text, fold)
    del text
    if not isinstance(doc, dict) or "polygons" not in doc:
        raise SemanticError('top-level object must contain "polygons"')
    items = doc["polygons"]
    if not isinstance(items, list) or not items:
        raise SemanticError('"polygons" must be a non-empty list')
    rows: List[_Row] = []
    # Errors come in document order: earlier rows are built first.
    failure = _read_rows(items, rows, ratios)
    # L from the rows' strings alone: ratios also holds other objects'.
    used = set()
    if ratios:
        for _, xs, ys in rows:
            used.update(xs, ys)
    kept = {s: ratios[s] for s in used.intersection(ratios)}
    den = math.lcm(*[d for _, d in kept.values()])
    # Each value in the rows times L, once per distinct value.
    scaled = {c: c * den for c in used.difference(kept)}
    scaled.update({s: n * (den // d) for s, (n, d) in kept.items()})
    polygons: List[Polygon] = []
    for i, (pid, xs, ys) in enumerate(rows):
        rows[i] = None
        if kept:
            xs = tuple(map(scaled.__getitem__, xs))
            ys = tuple(map(scaled.__getitem__, ys))
        try:
            polygons.append(polygon_from_columns(pid, xs, ys, den))
        except InputError as exc:
            # Its text already names the polygon.
            raise SemanticError(str(exc)) from exc
    if failure is not None:
        raise failure
    return polygons


def _read_rows(items: list, rows: list, ratios: Dict[str, Tuple[int, int]]):
    """Check the document's polygons in order, each a dict or the _Row the
    hook folded it into, append a _Row for each and drop each item once
    read. Returns a SemanticError for the first schema violation, with the
    rows before it appended, or None."""
    seen = set()
    for i, item in enumerate(items):
        items[i] = None
        if item.__class__ is _Row:  # folded by the decoder's hook
            pid = item[0]
        elif not isinstance(item, dict):
            return SemanticError(f"polygon #{i} is not an object")
        else:
            pid = item.get("id")
            if not isinstance(pid, str) or not pid:
                return SemanticError(
                    f"polygon #{i} needs a non-empty string id"
                )
        if pid in seen:
            return SemanticError(f"duplicate polygon id {pid!r}")
        seen.add(pid)
        if item.__class__ is not _Row:
            try:
                item = _row(pid, item.get("vertices"), ratios)
            except ValueError as exc:
                return SemanticError(f"polygon {pid!r}: {exc}")
        rows.append(item)


class _Row(tuple):
    """(id, xs, ys), kept off CPython's free list of plain tuples. It
    stands in for the polygon object it was folded from, and messages name
    it dict."""
    __slots__ = ()


def _row(pid, verts, ratios: Dict[str, Tuple[int, int]]) -> _Row:
    """Columns of JSON ints and decimal strings, each string's ratio in
    ratios (only a str is probed); ValueError at the first fault."""
    if verts.__class__ is not list:
        raise ValueError("vertices must be a list")
    for j, v in enumerate(verts):
        if v.__class__ is not list or len(v) != 2:
            raise ValueError(f"vertex #{j} must be an [x, y] pair")
        x, y = v
        try:
            if x.__class__ is not int:
                if x.__class__ is not str or x not in ratios:
                    _add_ratio(x, ratios)
            if y.__class__ is not int:
                if y.__class__ is not str or y not in ratios:
                    _add_ratio(y, ratios)
        except ValueError as exc:
            raise ValueError(f"vertex #{j}: {exc}") from None
    # One zip, not appends: list growth would scatter the decoder's ints.
    xs, ys = zip(*verts) if verts else ((), ())
    return _Row((pid, xs, ys))


def _add_ratio(value, ratios: Dict[str, Tuple[int, int]]) -> None:
    """Check a coordinate that is no int or known string; add it to ratios."""
    cls = value.__class__
    if cls is not str:
        if cls is bool or cls is float:
            raise ValueError(
                "coordinates must be integers or finite-decimal strings"
            )
        name = "dict" if cls is _Row else cls.__name__
        raise ValueError(f"unsupported coordinate type: {name}")
    ratios[value] = decimal_ratio(value)


def _encode_coord(value: Coord):
    if isinstance(value, int):
        return value
    num, den = value.numerator, value.denominator
    scale = 0
    while den % 2 == 0:
        den //= 2
        scale += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no finite decimal representation")
    digits = max(scale, fives)
    scaled = num * 10**digits // value.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def serialize_instance(polygons: Sequence[Polygon]) -> str:
    doc = {
        "polygons": [
            {
                "id": p.id,
                "vertices": [
                    [_encode_coord(v.x), _encode_coord(v.y)]
                    for v in p.vertices
                ],
            }
            for p in polygons
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def forest_document(
    forest: NestingForest, stats: Optional[Dict] = None
) -> dict:
    depths = forest.depths()
    doc = {
        "forest": [
            {"id": pid, "parent": forest.parent[pid], "depth": depths[pid]}
            for pid in sorted(forest.parent)
        ]
    }
    if stats is not None:
        doc["stats"] = stats
    return doc


def parse_forest(text) -> NestingForest:
    """Parse a forest document from str or bytes; depths and stats are not
    read. Raises ParseError for input that load_json rejects, SemanticError
    for a document that is no forest: a missing "forest" array, a malformed
    row, a repeated id, a parent with no row, or a cycle of parent links.
    """
    doc = load_json(text)
    rows = doc.get("forest") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise SemanticError('forest document must contain a "forest" array')
    parent = {}
    for i, row in enumerate(rows):
        if not (
            isinstance(row, dict)
            and isinstance(row.get("id"), str)
            and "parent" in row
            and (row["parent"] is None or isinstance(row["parent"], str))
        ):
            raise SemanticError(
                f'forest row #{i} needs a string "id" and a "parent" '
                f"that is an id or null"
            )
        if row["id"] in parent:
            raise SemanticError(f"duplicate forest id {row['id']!r}")
        parent[row["id"]] = row["parent"]
    for pid, par in parent.items():
        if par is not None and par not in parent:
            raise SemanticError(
                f"parent {par!r} of {pid!r} is not in the forest"
            )
    forest = NestingForest(parent=parent)
    try:
        forest.depths()
    except ContainmentCycle as exc:
        raise SemanticError(str(exc)) from exc
    return forest


_FOREST_ROW = '    {\n      "id": %s,\n      "parent": %s,\n      "depth": %d\n    }'


def serialize_forest(
    forest: NestingForest, stats: Optional[Dict] = None
) -> str:
    """forest_document as json.dumps(..., indent=2) writes it, plus a newline.

    The rows have a fixed shape, so they are formatted directly: json.dumps
    with indent falls back to its pure-Python encoder. Ids must be strings.
    """
    depths = forest.depths()
    parent = forest.parent
    rows = ",\n".join(
        _FOREST_ROW % (
            _json_str(pid),
            "null" if parent[pid] is None else _json_str(parent[pid]),
            depths[pid],
        )
        for pid in sorted(parent)
    )
    text = f'{{\n  "forest": [\n{rows}\n  ]' if rows else '{\n  "forest": []'
    if stats is not None:
        # Nested one level down: two more spaces after every line break.
        nested = json.dumps(stats, indent=2).replace("\n", "\n  ")
        text += f',\n  "stats": {nested}'
    return text + "\n}\n"
