"""Timing helpers comparing the sweep against the brute-force reference."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .generator import GenConfig, generate
from .oracle import brute_force_forest
from .sweep import nesting_forest_with_stats

DEFAULT_ORACLE_CUTOFF = 4096


@dataclass
class BenchRow:
    m: int
    n: int
    N: int
    elapsed_ns_sweep: int
    elapsed_ns_oracle: Optional[int] = None


def disjoint_instance(m: int, shape: str = "convex", seed: int = 0):
    """m pairwise-disjoint polygons of one shape on a grid."""
    cols = max(1, round(m**0.5))
    span = max(64 * cols, 256)
    cfg = GenConfig(
        seed=seed,
        n_roots=m,
        max_depth=0,
        shape_mix={shape: 1},
        coordinate_span=span,
    )
    return generate(cfg)


def time_sweep(polygons, repeat: int = 5) -> List[int]:
    """Elapsed nanoseconds per run, garbage collector paused."""
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter_ns()
            nesting_forest_with_stats(polygons)
            samples.append(time.perf_counter_ns() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return samples


def run_benchmark(
    sizes: Sequence[int],
    shape: str = "convex",
    repeat: int = 5,
    oracle_cutoff: int = DEFAULT_ORACLE_CUTOFF,
    seed: int = 0,
) -> List[BenchRow]:
    """One row per size: median sweep time, oracle time below the cutoff."""
    rows = []
    for m in sizes:
        polygons = disjoint_instance(m, shape=shape, seed=seed)
        _, stats = nesting_forest_with_stats(polygons)
        sweep_ns = int(statistics.median(time_sweep(polygons, repeat)))
        oracle_ns = None
        if m <= oracle_cutoff:
            t0 = time.perf_counter_ns()
            brute_force_forest(polygons)
            oracle_ns = time.perf_counter_ns() - t0
        rows.append(
            BenchRow(
                m=m,
                n=stats.n,
                N=stats.N,
                elapsed_ns_sweep=sweep_ns,
                elapsed_ns_oracle=oracle_ns,
            )
        )
    return rows


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    lines = ["m,n,N,elapsed_ns_sweep,elapsed_ns_oracle"]
    for r in rows:
        oracle = "" if r.elapsed_ns_oracle is None else str(r.elapsed_ns_oracle)
        lines.append(f"{r.m},{r.n},{r.N},{r.elapsed_ns_sweep},{oracle}")
    return "\n".join(lines) + "\n"
