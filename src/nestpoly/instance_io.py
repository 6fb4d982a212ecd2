"""JSON (de)serialization of instances and nesting forests.

Instance document: {"polygons": [{"id": str, "vertices": [[x, y], ...]}]}
where x and y are JSON integers or finite-decimal strings; both parse
exactly. Forest document: {"forest": [{"id", "parent", "depth"}, ...]}
sorted by id, with an optional "stats" object. Serialization is
byte-deterministic for a given instance.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import InputError, ParseError, SemanticError
from .forest import NestingForest
from .geometry import Coord, Polygon, coord, polygon_from_columns


def parse_instance(text) -> List[Polygon]:
    """Parse an instance document from str or bytes.

    Raises ParseError for bytes that are not UTF-8 and (with line and
    column) for malformed JSON, and SemanticError for schema violations
    such as duplicate ids or too few vertices.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"input is not UTF-8: byte {exc.start} cannot be decoded"
            ) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "polygons" not in doc:
        raise SemanticError('top-level object must contain "polygons"')
    items = doc["polygons"]
    if not isinstance(items, list) or not items:
        raise SemanticError('"polygons" must be a non-empty list')
    polygons: List[Polygon] = []
    seen = set()
    parsed: Dict[str, Coord] = {}
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SemanticError(f"polygon #{i} is not an object")
        pid = item.get("id")
        if not isinstance(pid, str) or not pid:
            raise SemanticError(f"polygon #{i} needs a non-empty string id")
        if pid in seen:
            raise SemanticError(f"duplicate polygon id {pid!r}")
        seen.add(pid)
        verts = item.get("vertices")
        if not isinstance(verts, list):
            raise SemanticError(f"polygon {pid!r}: vertices must be a list")
        xs = []
        ys = []
        for j, v in enumerate(verts):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise SemanticError(
                    f"polygon {pid!r}: vertex #{j} must be an [x, y] pair"
                )
            x, y = v
            try:
                if x.__class__ is not int:
                    x = _parse_coord(x, parsed)
                if y.__class__ is not int:
                    y = _parse_coord(y, parsed)
            except ValueError as exc:
                raise SemanticError(
                    f"polygon {pid!r}: vertex #{j}: {exc}"
                ) from exc
            xs.append(x)
            ys.append(y)
        try:
            polygons.append(polygon_from_columns(pid, tuple(xs), tuple(ys)))
        except InputError as exc:
            raise SemanticError(f"polygon {pid!r}: {exc}") from exc
    return polygons


def _parse_coord(value, parsed: Dict[str, Coord]) -> Coord:
    """Coordinate from a non-int JSON value; parsed caches decimal strings.

    Equal strings thus share one Fraction, and each is parsed only once.
    """
    cls = value.__class__
    if cls is str:
        c = parsed.get(value)
        if c is None:
            c = parsed[value] = coord(value)
        return c
    if cls is bool or cls is float:
        raise ValueError(
            "coordinates must be integers or finite-decimal strings"
        )
    return coord(value)


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


def instance_document(polygons: Sequence[Polygon]) -> dict:
    return {
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


def serialize_instance(polygons: Sequence[Polygon]) -> str:
    return json.dumps(instance_document(polygons), indent=2) + "\n"


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
