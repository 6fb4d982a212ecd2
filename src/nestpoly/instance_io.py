"""JSON (de)serialization of instances and nesting forests.

Instance document: {"polygons": [{"id": str, "vertices": [[x, y], ...]}]}
where x and y are JSON integers or finite-decimal strings; both parse
exactly. Forest document: {"forest": [{"id", "parent", "depth"}, ...]}
sorted by id, with an optional "stats" object. Serialization is
byte-deterministic for a given instance.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import InputError, ParseError, SemanticError
from .forest import NestingForest
from .geometry import Coord, Point, Polygon, coord, polygon_from_points


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
        pts = []
        for j, v in enumerate(verts):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise SemanticError(
                    f"polygon {pid!r}: vertex #{j} must be an [x, y] pair"
                )
            try:
                pts.append(
                    Point(
                        _parse_coord(v[0], parsed), _parse_coord(v[1], parsed)
                    )
                )
            except ValueError as exc:
                raise SemanticError(
                    f"polygon {pid!r}: vertex #{j}: {exc}"
                ) from exc
        try:
            polygons.append(polygon_from_points(pid, pts))
        except InputError as exc:
            raise SemanticError(f"polygon {pid!r}: {exc}") from exc
    return polygons


def _parse_coord(value, parsed: Dict[str, Coord]) -> Coord:
    """Coordinate from a JSON value; parsed caches the decimal strings.

    Equal strings thus share one Fraction, and each is parsed only once.
    """
    cls = value.__class__
    if cls is int:
        return value
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


def serialize_forest(
    forest: NestingForest, stats: Optional[Dict] = None
) -> str:
    return json.dumps(forest_document(forest, stats), indent=2) + "\n"
