"""Timing helpers comparing the sweep against the brute-force reference."""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

from .generator import GenConfig, generate
from .oracle import brute_force_forest
from .sweep import nesting_forest_with_stats

DEFAULT_ORACLE_CUTOFF = 4096


def disjoint_instance(m: int, shape: str = "convex"):
    """m pairwise-disjoint polygons of one shape on a grid, seed 0."""
    cols = max(1, round(m**0.5))
    span = max(64 * cols, 256)
    cfg = GenConfig(
        seed=0,
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
) -> str:
    """CSV text, one row per size: median sweep time, and the oracle's time
    for sizes up to the cutoff (empty above it)."""
    lines = ["m,n,N,elapsed_ns_sweep,elapsed_ns_oracle"]
    for m in sizes:
        polygons = disjoint_instance(m, shape=shape)
        _, stats = nesting_forest_with_stats(polygons)
        sweep_ns = int(statistics.median(time_sweep(polygons, repeat)))
        oracle_ns = ""
        if m <= oracle_cutoff:
            t0 = time.perf_counter_ns()
            brute_force_forest(polygons)
            oracle_ns = time.perf_counter_ns() - t0
        lines.append(f"{m},{stats.n},{stats.N},{sweep_ns},{oracle_ns}")
    return "\n".join(lines) + "\n"
