"""Seeded workload generators for the nesting benchmark.

Each generator places polygons whose containment is known by construction
and records every polygon's parent as it places it, so the benchmark can
check the program's forests without trusting the program. The generators
use only the standard library; the program sees only the instance document
they produce.

Regenerate an instance and its recorded forest document:

    python3 perfbench/workloads.py --workload convex-grid --seed 1 \
        -o perfbench/out/convex-grid-1.json

This writes the instance to the given path, and the recorded forest, in the
byte format of `nestpoly nest`, to the same path with the suffix
`.forest.json` (here perfbench/out/convex-grid-1.forest.json).
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Vertex = Tuple[object, object]  # int, or a finite-decimal string


@dataclass
class Instance:
    """Polygons in file order plus the forest recorded while placing them."""

    polygons: List[Tuple[str, List[Vertex]]]
    parent: Dict[str, Optional[str]]

    def to_json(self) -> str:
        doc = {
            "polygons": [
                {"id": pid, "vertices": [list(v) for v in verts]}
                for pid, verts in self.polygons
            ]
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"

    @property
    def n(self) -> int:
        return sum(len(verts) for _, verts in self.polygons)


def forest_rows(parent: Dict[str, Optional[str]]) -> List[dict]:
    """Rows of a forest document (sorted by id, with depths) for a forest."""
    depth: Dict[str, int] = {}
    for pid in parent:
        chain = []
        cur = pid
        while cur is not None and cur not in depth:
            chain.append(cur)
            cur = parent[cur]
        d = -1 if cur is None else depth[cur]
        for node in reversed(chain):
            d += 1
            depth[node] = d
    return [
        {"id": pid, "parent": parent[pid], "depth": depth[pid]}
        for pid in sorted(parent)
    ]


def check_forest_rows(rows, parent: Dict[str, Optional[str]]) -> Optional[str]:
    """Why a forest document's rows are wrong, or None when they are right.

    Checks the properties every forest document has (each id once, rows
    sorted by id, each depth one more than its parent's, roots at depth 0)
    and then that the parents equal the recorded ones.
    """
    if not isinstance(rows, list):
        return "forest is not a list"
    ids = []
    depth = {}
    for row in rows:
        if not isinstance(row, dict) or set(row) != {"id", "parent", "depth"}:
            return f"malformed row {row!r}"
        ids.append(row["id"])
        depth[row["id"]] = row["depth"]
    if len(depth) != len(ids):
        return "an id appears more than once"
    if ids != sorted(ids):
        return "rows are not sorted by id"
    for row in rows:
        par = row["parent"]
        if par is None:
            want = 0
        elif par in depth:
            want = depth[par] + 1
        else:
            return f"{row['id']!r} has unknown parent {par!r}"
        if row["depth"] != want:
            return f"{row['id']!r} has depth {row['depth']}, expected {want}"
    got = {row["id"]: row["parent"] for row in rows}
    if got != parent:
        wrong = sorted(
            pid for pid in set(got) | set(parent) if got.get(pid) != parent.get(pid)
        )
        return f"{len(wrong)} parents differ from the recorded forest, e.g. {wrong[0]!r}"
    return None


def _as_cycle(rng: random.Random, verts: Sequence[Vertex]) -> List[Vertex]:
    """The same boundary from a random start vertex in a random direction."""
    k = rng.randrange(len(verts))
    cycle = list(verts[k:]) + list(verts[:k])
    if rng.random() < 0.5:
        cycle.reverse()
    return cycle


def _convex(rng: random.Random, cx: int, cy: int, r: int, k: int) -> List[Vertex]:
    """Integer convex polygon with about k vertices near a circle of radius r.

    Consecutive angles are at most 1.5 * 2pi/k apart, so the polygon holds the
    disc of radius r * cos(1.5 * pi / k) - 1 about (cx, cy).
    """
    pts = []
    for i in range(k):
        a = 2 * math.pi * (i + rng.uniform(0, 0.5)) / k
        pts.append((cx + round(r * math.cos(a)), cy + round(r * math.sin(a))))
    return _hull(pts)


def _hull(pts: Sequence[Tuple[int, int]]) -> List[Vertex]:
    """Strictly convex hull, counterclockwise (Andrew's monotone chain)."""
    pts = sorted(set(pts))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Tuple[int, int]] = []
    upper: List[Tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_grid(seed: int, cells: int) -> Instance:
    """Disjoint grid cells, each an outer ~24-gon holding an inner ~12-gon.

    Cells are 1000 units wide; an outer polygon has radius at most 440
    about a point at most 40 from the cell centre, so no two cells touch.
    The inner polygon lies within 0.6 r of the outer's centre, well inside
    the outer's inscribed disc of radius about 0.98 r.
    """
    rng = random.Random(seed)
    cols = math.isqrt(cells - 1) + 1
    polygons: List[Tuple[str, List[Vertex]]] = []
    parent: Dict[str, Optional[str]] = {}
    for c in range(cells):
        gx, gy = divmod(c, cols)
        cx = gx * 1000 + 500 + rng.randint(-40, 40)
        cy = gy * 1000 + 500 + rng.randint(-40, 40)
        r = rng.randint(380, 440)
        outer, inner = f"g{c:05d}o", f"g{c:05d}i"
        polygons.append((outer, _as_cycle(rng, _convex(rng, cx, cy, r, 24))))
        parent[outer] = None
        ix = cx + rng.randint(-r // 10, r // 10)
        iy = cy + rng.randint(-r // 10, r // 10)
        ir = rng.randint(r * 4 // 10, r // 2)
        polygons.append((inner, _as_cycle(rng, _convex(rng, ix, iy, ir, 12))))
        parent[inner] = outer
    rng.shuffle(polygons)
    return Instance(polygons, parent)


RING_GAP = 4
NOTCHES = 3


def nested_notched(seed: int, stacks: int, depth: int) -> Instance:
    """Side-by-side stacks of concentric integer squares with notched sides.

    Ring j of a stack has half-size 16 + 4 * (depth - 1 - j), so rings are 4
    units apart. Three rectangular notches, 1 to 3 units deep, are cut into
    the right side of every ring; being shallower than the ring gap, they
    never reach the next ring in. A ring's parent is the ring outside it.
    """
    rng = random.Random(seed)
    outer_half = 16 + RING_GAP * (depth - 1)
    polygons: List[Tuple[str, List[Vertex]]] = []
    parent: Dict[str, Optional[str]] = {}
    for s in range(stacks):
        cx = s * (2 * outer_half + 8 + rng.randint(0, 8))
        cy = rng.randint(-8, 8)
        prev = None
        for j in range(depth):
            h = outer_half - RING_GAP * j
            x0, x1, y0, y1 = cx - h, cx + h, cy - h, cy + h
            slot = (2 * h - 2) // NOTCHES
            verts: List[Vertex] = [(x0, y0), (x1, y0)]
            for k in range(NOTCHES):
                lo = y0 + 1 + k * slot
                a = lo + rng.randint(0, slot // 2 - 1)
                b = a + rng.randint(1, slot // 2)
                d = rng.randint(1, RING_GAP - 1)
                verts += [(x1, a), (x1 - d, a), (x1 - d, b), (x1, b)]
            verts += [(x1, y1), (x0, y1)]
            pid = f"s{s}r{j:04d}"
            polygons.append((pid, _as_cycle(rng, verts)))
            parent[pid] = prev
            prev = pid
    rng.shuffle(polygons)
    return Instance(polygons, parent)


def _decimal(num: int, level: int) -> str:
    """num / 2**level as an exact finite-decimal string, e.g. "0.0078125"."""
    if level == 0:
        return f"{num}.0"
    digits = str(num * 5**level).rjust(level + 1, "0")
    frac = digits[-level:].rstrip("0") or "0"
    return f"{digits[:-level]}.{frac}"


def quadtree_decimal(seed: int, roots: int, splits: Sequence[int]) -> Instance:
    """An irregular quadtree over side-by-side unit squares, decimal coords.

    Starting from `roots` unit squares in a row, splits[k] cells of level k,
    chosen at random, are each cut into their four quadrants. Every cell is a
    polygon whose parent is the cell it was cut from; the quadrants tile
    their parent exactly, so each shares whole edges with its parent and its
    siblings. The number of cells on each level is the same for every seed,
    so the seed changes where the tree is deep but not how much work it is:
    m = roots + 4 * sum(splits).
    """
    rng = random.Random(seed)
    polygons: List[Tuple[str, List[Vertex]]] = []
    parent: Dict[str, Optional[str]] = {}

    def place(level: int, ix: int, iy: int, par: Optional[str]):
        pid = f"q{len(polygons):05d}"
        x0, x1 = _decimal(ix, level), _decimal(ix + 1, level)
        y0, y1 = _decimal(iy, level), _decimal(iy + 1, level)
        square = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        polygons.append((pid, _as_cycle(rng, square)))
        parent[pid] = par
        return (ix, iy, pid)

    cells = [place(0, r, 0, None) for r in range(roots)]
    for level, count in enumerate(splits):
        cells = [
            place(level + 1, 2 * ix + dx, 2 * iy + dy, pid)
            for ix, iy, pid in rng.sample(cells, count)
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]
    rng.shuffle(polygons)
    return Instance(polygons, parent)


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: its full-size and its test-size generator.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    make: Callable[[int], Instance]
    make_small: Callable[[int], Instance]
    breaks_model: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "convex-grid",
            lambda seed: convex_grid(seed, cells=1600),
            lambda seed: convex_grid(seed, cells=9),
            breaks_model=True,
        ),
        Workload(
            "nested-notched",
            lambda seed: nested_notched(seed, stacks=1, depth=2000),
            lambda seed: nested_notched(seed, stacks=2, depth=6),
        ),
        Workload(
            "quadtree-decimal",
            lambda seed: quadtree_decimal(
                seed, roots=4, splits=(4, 12, 30, 60, 80, 70, 30, 10, 4)
            ),
            lambda seed: quadtree_decimal(seed, roots=2, splits=(2, 4, 2)),
        ),
    )
}


# Instances that break the model (a proper crossing, a partial overlap, a
# self-intersection). `nestpoly nest` should reject each with exit code 1.
MODEL_BREAKING: Dict[str, Instance] = {
    "crossing-pair": Instance(
        [("P", [(0, 0), (8, 0), (8, 4), (0, 8)]),
         ("Q", [(0, -1), (8, -1), (8, 8), (0, 4)])],
        {},
    ),
    "overlapping-squares": Instance(
        [("A", [(0, 0), (4, 0), (4, 4), (0, 4)]),
         ("B", [(2, 2), (6, 2), (6, 6), (2, 6)])],
        {},
    ),
    "bowtie": Instance([("X", [(0, 0), (2, 2), (2, 0), (0, 2)])], {}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    inst = w.make(args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(inst.to_json(), encoding="utf-8")
    forest = {"forest": forest_rows(inst.parent)}
    out.with_suffix(".forest.json").write_text(
        json.dumps(forest, indent=2) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
