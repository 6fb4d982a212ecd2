"""Deterministic SVG rendering of an instance, colored by nesting depth."""

from __future__ import annotations

import math
import re
from typing import List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from .errors import SemanticError
from .forest import NestingForest
from .geometry import Polygon
from .sweep import nesting_forest

# Each character that XML 1.0 or UTF-8 cannot carry (lone surrogates).
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a356",
    "#e15759",
    "#76b7b2",
    "#edc948",
    "#b07aa1",
    "#9c755f",
)


def render_svg(
    polygons: Sequence[Polygon], forest: Optional[NestingForest] = None
) -> str:
    """SVG with one filled path per polygon, deeper polygons painted later.

    The y-axis is flipped so that larger y is up, matching the geometric
    convention rather than the SVG one. Raises SemanticError when a
    coordinate, the drawing's width or height, or a label position is not
    a finite float.
    """
    if forest is None:
        forest = nesting_forest(polygons)
    depths = forest.depths()
    drawn = [(p, *_float_columns(p)) for p in polygons]
    min_x = min(min(xs) for _, xs, _ in drawn)
    max_x = max(max(xs) for _, xs, _ in drawn)
    min_y = min(min(ys) for _, _, ys in drawn)
    max_y = max(max(ys) for _, _, ys in drawn)
    width = max(max_x - min_x, 1.0)
    height = max(max_y - min_y, 1.0)
    pad = 0.03 * max(width, height)
    _require_finite(width + 2 * pad, "the drawing's width")
    _require_finite(height + 2 * pad, "the drawing's height")

    def tx(x: float) -> float:
        return x - min_x + pad

    def ty(y: float) -> float:
        return max_y - y + pad

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width + 2 * pad:g} {height + 2 * pad:g}">',
    ]
    order = sorted(drawn, key=lambda d: (depths[d[0].id], d[0].id))
    stroke_w = max(width, height) / 400
    for p, xs, ys in order:
        d = depths[p.id]
        pts = " ".join(f"{tx(x):g},{ty(y):g}" for x, y in zip(xs, ys))
        fill = _PALETTE[d % len(_PALETTE)]
        lines.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.85" '
            f'stroke="#222222" stroke-width="{stroke_w:g}"/>'
        )
    font = max(width, height) / 40
    for p, xs, ys in order:
        cx = _require_finite(sum(xs) / len(xs), f"the label of {p.id!r}")
        cy = _require_finite(sum(ys) / len(ys), f"the label of {p.id!r}")
        label = escape(_NOT_XML.sub("\ufffd", p.id))
        lines.append(
            f'<text x="{tx(cx):g}" y="{ty(cy):g}" font-size="{font:g}" '
            f'text-anchor="middle" fill="#111111">'
            f"{label}({depths[p.id]})</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _float_columns(p: Polygon) -> Tuple[List[float], List[float]]:
    vertices = p.vertices
    try:
        return [float(v.x) for v in vertices], [float(v.y) for v in vertices]
    except OverflowError:
        raise SemanticError(
            f"cannot render polygon {p.id!r}: a coordinate is beyond float "
            f"range"
        ) from None


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise SemanticError(f"cannot render: {what} is beyond float range")
    return value
