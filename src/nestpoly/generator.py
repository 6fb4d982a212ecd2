"""Seeded generator for overlap-free, possibly touching polygon instances.

Every polygon is built inside an axis-aligned box and is guaranteed to
contain a concentric "core" box whose bottom side lies on the polygon's own
flat bottom edge. Children are placed in disjoint cells inside the parent's
core; a touching child sits flush on the parent's bottom edge so that the
two share a collinear boundary portion. All coordinates are integers, so a
fixed seed reproduces the same instance on any platform (the PRNG is
Python's Mersenne Twister).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cmp_to_key
from math import fsum, isfinite, isqrt
from numbers import Real
from typing import Dict, List, Sequence, Tuple

from .errors import GenerationFailed
from .geometry import Point, Polygon, cross, make_polygon

MIN_W = 16
MIN_H = 12
GAP = 2


@dataclass
class GenConfig:
    seed: int = 0
    n_roots: int = 1
    max_depth: int = 0
    children_per_node: Tuple[int, int] = (1, 2)
    touching_prob: float = 0.0
    shape_mix: Dict[str, int] = field(
        default_factory=lambda: {"convex": 2, "staircase": 2, "star": 1}
    )
    coordinate_span: int = 1_000_000

    def __post_init__(self):
        for name in ("n_roots", "max_depth", "coordinate_span"):
            _require_int(name, getattr(self, name))
        if not isinstance(self.seed, (int, str)):
            raise TypeError("seed must be an integer or a string")
        if not _is_number(self.touching_prob):
            raise TypeError("touching_prob must be a number")
        if not isinstance(self.shape_mix, dict):
            raise TypeError("shape_mix must be an object of shape weights")
        if not all(map(_is_number, self.shape_mix.values())):
            raise TypeError("shape_mix weights must be numbers")
        if (
            not isinstance(self.children_per_node, (list, tuple))
            or len(self.children_per_node) != 2
        ):
            raise TypeError("children_per_node must be a [lo, hi] pair")
        self.children_per_node = tuple(self.children_per_node)
        for bound in self.children_per_node:
            _require_int("children_per_node", bound)
        if self.n_roots < 1:
            raise ValueError("n_roots must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        lo, hi = self.children_per_node
        if not (0 <= lo <= hi):
            raise ValueError("children_per_node must be 0 <= lo <= hi")
        if not 0 <= float(self.touching_prob) <= 1:
            raise ValueError("touching_prob must be in [0, 1]")
        if not self.shape_mix:
            raise ValueError("shape_mix names no shape")
        if any(w < 0 for w in self.shape_mix.values()):
            raise ValueError("shape_mix weights must be non-negative")
        if not any(w > 0 for w in self.shape_mix.values()):
            raise ValueError("shape_mix needs a positive weight")
        if not isfinite(fsum(self.shape_mix.values())):
            raise ValueError("shape_mix weights must have a finite sum")
        if set(self.shape_mix) - {"convex", "staircase", "star"}:
            raise ValueError("unknown shape in shape_mix")


def _require_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer")


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _core(box):
    x0, y0, x1, y1 = box
    mx = max(2, (x1 - x0) // 6)
    my = max(2, (y1 - y0) // 4)
    return x0 + mx, y0, x1 - mx, y1 - my


def _make_convex(rng: random.Random, box, core) -> List[Point]:
    x0, y0, x1, y1 = box
    cx0, _, cx1, ctop = core
    pts = {Point(cx0, y0), Point(cx1, y0), Point(cx0, ctop), Point(cx1, ctop)}
    for _ in range(rng.randint(3, 8)):
        pts.add(Point(rng.randint(x0, x1), rng.randint(y0, y1)))
    return _convex_hull(sorted(pts))


def _convex_hull(pts: Sequence[Point]) -> List[Point]:
    """Monotone-chain hull, counterclockwise, no collinear vertices."""
    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _make_staircase(rng: random.Random, box, core) -> List[Point]:
    x0, y0, x1, y1 = box
    cx0, _, cx1, ctop = core
    ncols = rng.randint(1, min(4, max(1, (cx1 - cx0) // 4)))
    bounds = sorted(rng.sample(range(cx0 + 1, cx1), ncols - 1)) if ncols > 1 else []
    bounds = [cx0] + bounds + [cx1]
    heights = [rng.randint(ctop, y1) for _ in range(ncols)]
    pts: List[Point] = [Point(cx0, y0), Point(cx1, y0)]
    for i in range(ncols, 0, -1):
        pts.append(Point(bounds[i], heights[i - 1]))
        pts.append(Point(bounds[i - 1], heights[i - 1]))
    # Occasionally split the left vertical side to exercise consecutive
    # collinear vertical edges.
    if y0 + 2 <= heights[0] - 1 and rng.random() < 0.3:
        pts.append(Point(cx0, rng.randint(y0 + 1, heights[0] - 1)))
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _half_cmp(u: Point, v: Point) -> int:
    """Counterclockwise angular order of direction vectors from angle 0."""

    def half(d: Point) -> int:
        return 0 if d.y > 0 or (d.y == 0 and d.x > 0) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u.x * v.y - u.y * v.x
    return (c < 0) - (c > 0)


def _star_child_core(box, core):
    x0, y0, x1, y1 = box
    cx0, _, cx1, ctop = core
    cy = y0 + min(max(MIN_H + 2 * GAP + 2, (ctop - y0) // 3), ctop - y0)
    return cx0, y0, cx1, cy


def _make_star(rng: random.Random, box, core) -> List[Point]:
    """Star-shaped polygon with a flat bottom and pinned flanks.

    Vertices are sorted by exact angle around a low center c. The pinned
    flank vertices sit at the core's x-bounds at height c.y and the random
    vertices all lie strictly above c.y, so the boundary below that height
    consists of two vertical sides and the bottom edge; the child core box
    is therefore contained by construction.
    """
    x0, y0, x1, y1 = box
    cx0, _, cx1, cy = _star_child_core(box, core)
    cx = (cx0 + cx1) // 2
    pinned = [Point(cx0, y0), Point(cx1, y0), Point(cx1, cy), Point(cx0, cy)]
    samples = [
        Point(rng.randint(x0, x1), rng.randint(cy + 1, y1))
        for _ in range(rng.randint(4, 10) if cy + 1 <= y1 else 0)
    ]
    dirs: List[Tuple[Point, Point]] = [
        (Point(p.x - cx, p.y - cy), p) for p in pinned + samples
    ]
    dirs.sort(key=cmp_to_key(lambda a, b: _half_cmp(a[0], b[0])))
    verts: List[Point] = []
    for d, p in dirs:
        if verts:
            prev = verts[-1]
            pd = Point(prev.x - cx, prev.y - cy)
            if _half_cmp(pd, d) == 0:
                # Same direction: keep the farther point.
                if d.x * d.x + d.y * d.y > pd.x * pd.x + pd.y * pd.y:
                    verts[-1] = p
                continue
        verts.append(p)
    return verts


def _build_shape(rng: random.Random, shape: str, box, core):
    """Vertex cycle plus the core box available to children."""
    if shape == "convex":
        return _make_convex(rng, box, core), core
    if shape == "staircase":
        return _make_staircase(rng, box, core), core
    return _make_star(rng, box, core), _star_child_core(box, core)


def _child_boxes(rng: random.Random, core, k: int):
    cx0, y0, cx1, ctop = core
    avail_w = (cx1 - GAP) - (cx0 + GAP)
    avail_h = (ctop - GAP) - y0
    if avail_w < MIN_W or avail_h < MIN_H:
        return None
    if (avail_w + GAP) // (MIN_W + GAP) < k:
        return None
    w = (avail_w - GAP * (k - 1)) // k
    boxes = []
    left = cx0 + GAP
    for _ in range(k):
        jitter = rng.randint(0, max(0, min(w - MIN_W, w // 6)))
        boxes.append((left + jitter, y0, left + w, y0 + avail_h))
        left += w + GAP
    return boxes


class _Generator:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.shapes = sorted(s for s, w in cfg.shape_mix.items() if w > 0)
        self.weights = [cfg.shape_mix[s] for s in self.shapes]
        self.polygons: List[Polygon] = []

    def run(self) -> List[Polygon]:
        cfg = self.cfg
        cols = max(1, isqrt(cfg.n_roots - 1) + 1)
        rows = (cfg.n_roots + cols - 1) // cols
        cell_w = (cfg.coordinate_span - GAP * (cols - 1)) // cols
        cell_h = (cfg.coordinate_span - GAP * (rows - 1)) // rows
        if cell_w < MIN_W or cell_h < MIN_H:
            raise GenerationFailed(
                f"coordinate_span {cfg.coordinate_span} too small for "
                f"{cfg.n_roots} roots"
            )
        for i in range(cfg.n_roots):
            r, c = divmod(i, cols)
            x0 = c * (cell_w + GAP)
            y0 = r * (cell_h + GAP)
            box = self._jitter((x0, y0, x0 + cell_w - 1, y0 + cell_h - 1))
            self._place(box)
        return self.polygons

    def _jitter(self, box):
        x0, y0, x1, y1 = box
        rng = self.rng
        dx = rng.randint(0, max(0, min((x1 - x0 - MIN_W) // 4, 8)))
        dy = rng.randint(0, max(0, min((y1 - y0 - MIN_H) // 4, 8)))
        return (x0 + dx, y0 + dy, x1, y1)

    def _place(self, root_box):
        """Place a root polygon and its descendants, depth first."""
        cfg, rng = self.cfg, self.rng
        # (box, depth) of the polygons still to place, the next one last. A
        # child draws its touch when popped: the draws of a recursion, in its
        # order, but with no limit on depth.
        stack = [(root_box, 0)]
        while stack:
            box, depth = stack.pop()
            if depth and rng.random() >= float(cfg.touching_prob):
                x0, y0, x1, y1 = box
                box = (x0, y0 + GAP, x1, y1)
            core = _core(box)
            shape = rng.choices(self.shapes, weights=self.weights)[0]
            verts, core = _build_shape(rng, shape, box, core)
            self.polygons.append(make_polygon(f"P{len(self.polygons)}", verts))

            if depth >= cfg.max_depth:
                continue
            lo, hi = cfg.children_per_node
            k = rng.randint(lo, hi)
            if k == 0:
                continue
            boxes = _child_boxes(rng, core, k)
            if boxes is None:
                raise GenerationFailed(
                    f"no room for {k} children at depth {depth + 1}; "
                    f"increase coordinate_span"
                )
            stack.extend((b, depth + 1) for b in reversed(boxes))


def generate(cfg: GenConfig) -> List[Polygon]:
    """Deterministic instance for the given configuration."""
    return _Generator(cfg).run()


def transform(
    polygons: Sequence[Polygon], scale=1, dx=0, dy=0
) -> List[Polygon]:
    """Uniformly scaled and translated copy of an instance (exact)."""
    if scale == 0:
        raise ValueError("scale must be non-zero")
    return [
        make_polygon(
            p.id, [(v.x * scale + dx, v.y * scale + dy) for v in p.vertices]
        )
        for p in polygons
    ]
