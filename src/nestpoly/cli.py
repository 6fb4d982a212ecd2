"""Command line interface.

Exit codes: 0 on success, 1 when validation or the geometric model fails,
2 for unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from typing import List, Optional

from . import bench as bench_mod
from .errors import NestpolyError, ParseError, SemanticError
from .generator import GenConfig, generate
from .instance_io import (
    load_json,
    parse_forest,
    parse_instance,
    serialize_forest,
    serialize_instance,
)
from .oracle import brute_force_forest, validate
from .render import render_svg
from .sweep import nesting_forest_with_stats

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2


def _read(path: str) -> bytes:
    """The bytes of file path, or of stdin for -."""
    try:
        if path == "-":
            return sys.stdin.buffer.read()
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _report_violations(report) -> None:
    for v in report.violations:
        ids = ", ".join(v.polygon_ids)
        print(f"violation[{v.kind}] {ids}: {v.witness}", file=sys.stderr)


def cmd_nest(args) -> int:
    polygons = parse_instance(_read(args.instance))
    if args.validate:
        report = validate(polygons)
        if not report.ok:
            _report_violations(report)
            return EXIT_INVALID
    t0 = time.perf_counter_ns()
    forest, stats = nesting_forest_with_stats(polygons)
    elapsed = time.perf_counter_ns() - t0
    doc_stats = None
    if args.stats:
        doc_stats = {**asdict(stats), "elapsed_ns": elapsed}
    _write(args.output, serialize_forest(forest, doc_stats))
    return EXIT_OK


def cmd_oracle(args) -> int:
    polygons = parse_instance(_read(args.instance))
    forest = brute_force_forest(polygons)
    _write(args.output, serialize_forest(forest))
    return EXIT_OK


def cmd_validate(args) -> int:
    polygons = parse_instance(_read(args.instance))
    report = validate(polygons)
    if report.ok:
        print(f"ok: {len(polygons)} polygons")
        return EXIT_OK
    _report_violations(report)
    return EXIT_INVALID


def cmd_gen(args) -> int:
    kwargs = {}
    if args.config:
        loaded = load_json(_read(args.config))
        if not isinstance(loaded, dict):
            raise SemanticError("invalid generator config: not a JSON object")
        kwargs.update(loaded)
    flag_fields = {
        "seed": args.seed,
        "n_roots": args.roots,
        "max_depth": args.depth,
        "touching_prob": args.touching,
        "coordinate_span": args.span,
    }
    for field, value in flag_fields.items():
        if value is not None:
            kwargs[field] = value
    # Each flag replaces its own bound of the file's pair or of (1, 2); a
    # lone flag takes the other bound along rather than invert the pair.
    lo, hi = args.children_min, args.children_max
    pair = kwargs.get("children_per_node", (1, 2))
    if lo is not None and hi is not None:
        kwargs["children_per_node"] = (lo, hi)
    elif type(pair) in (list, tuple) and [type(b) for b in pair] == [int, int]:
        if lo is not None:
            kwargs["children_per_node"] = (lo, max(lo, pair[1]))
        elif hi is not None:
            kwargs["children_per_node"] = (min(pair[0], hi), hi)
    if args.shapes:
        kwargs["shape_mix"] = {
            name: 1 for name in args.shapes.split(",") if name
        }
    try:
        cfg = GenConfig(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SemanticError(f"invalid generator config: {exc}") from exc
    polygons = generate(cfg)
    _write(args.output, serialize_instance(polygons))
    return EXIT_OK


def cmd_render(args) -> int:
    polygons = parse_instance(_read(args.instance))
    forest = None
    if args.forest:
        forest = parse_forest(_read(args.forest))
        missing = [p.id for p in polygons if p.id not in forest.parent]
        if missing:
            more = f" and {len(missing) - 1} more" if len(missing) > 1 else ""
            raise SemanticError(
                f"forest has no row for polygon {missing[0]!r}{more}"
            )
    _write(args.output, render_svg(polygons, forest))
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise SemanticError(
            f"--sizes must be comma-separated integers: {args.sizes!r}"
        ) from exc
    if any(m <= 0 for m in sizes):
        raise SemanticError(f"--sizes must be positive: {args.sizes!r}")
    if args.repeat <= 0:
        raise SemanticError(f"--repeat must be positive: {args.repeat}")
    text = bench_mod.run_benchmark(
        sizes,
        shape=args.shape,
        repeat=args.repeat,
        oracle_cutoff=args.oracle_cutoff,
    )
    _write(args.output, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestpoly",
        description="Nesting forest of overlap-free, possibly touching "
        "simple polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nest", help="compute the nesting forest (sweep)")
    p.add_argument("-i", "--instance", required=True,
                   help="instance JSON file, or - for stdin")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--validate", action="store_true",
                   help="reject invalid instances before nesting")
    p.add_argument("--stats", action="store_true",
                   help="include size and timing stats in the output")
    p.set_defaults(func=cmd_nest)

    p = sub.add_parser("oracle", help="compute the forest by brute force")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="check an instance for violations")
    p.add_argument("-i", "--instance", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--config", default=None,
                   help="JSON file with GenConfig fields; flags override")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--roots", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--children-min", type=int, default=None)
    p.add_argument("--children-max", type=int, default=None)
    p.add_argument("--touching", type=float, default=None)
    p.add_argument("--span", type=int, default=None)
    p.add_argument("--shapes", default=None,
                   help="comma-separated subset of convex,staircase,star")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("render", help="render an instance to SVG")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--forest", default=None,
                   help="precomputed forest document to color by depth")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="time sweep vs. brute force, CSV out")
    p.add_argument("--sizes", default="256,512,1024")
    p.add_argument("--shape", choices=("convex", "staircase"),
                   default="convex")
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--oracle-cutoff", type=int,
                   default=bench_mod.DEFAULT_ORACLE_CUTOFF)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NestpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
