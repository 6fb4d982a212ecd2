"""Layered nesting benchmark for nestpoly.

    python3 perfbench/run.py --workload convex-grid --seed 1 --seconds 20 --trace 0

Generates one seeded instance of the workload (see workloads.py), then, for
--seconds, repeats rounds of one timed `nest` and one timed `forest` and
checks every result against the forest the generator recorded:

  nest    `nestpoly nest -i <instance> -o <file>` through nestpoly.cli.main
  forest  nesting_forest(polygons) on polygons parsed during set-up

A collection runs before each sample; the garbage collector stays on. A
fixed calibration loop runs between rounds, and every reported time is
scaled to a reference host speed by it (see hostspeed.py), because the
shared host's own speed drifts by up to a factor of two. The
`convex-grid` workload also runs three model-breaking instances through
`nest` every round, untimed; each is expected to exit 1 with a one-line
message and otherwise counts as a failed operation.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (nest_s, forest_s, peak_mem_mb, setup_s). With --trace 1 it holds
the per-layer metrics, taken by wrapping nestpoly's exported layer functions
(see layers.py) and the tracing overhead. `--workload all` runs every
workload in turn and prints one combined object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3


def load_program():
    """Import nestpoly from the src/ directory beside the benchmark."""
    init = SRC / "nestpoly" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nestpoly
    import nestpoly.cli

    if Path(nestpoly.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: nestpoly was imported from {nestpoly.__file__}")
    return nestpoly


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """One workload instance, its files, and the operations timed on it."""

    def __init__(self, nestpoly, workload: workloads.Workload, seed: int, workdir: Path):
        self.np = nestpoly
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.instance_path = workdir / "instance.json"
        self.output_path = workdir / "forest.json"
        self.errors: List[str] = []
        self.report: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.breaking: Dict[str, str] = {}
        self.breaking_paths: Dict[str, Path] = {}
        if workload.breaks_model:
            for name, inst in workloads.MODEL_BREAKING.items():
                path = workdir / f"{name}.json"
                path.write_text(inst.to_json(), encoding="utf-8")
                self.breaking_paths[name] = path

    def set_up(self) -> float:
        """Generate, write and parse the instance, warm up with one `nest`.

        Returns the seconds taken.
        """
        t0 = time.perf_counter()
        self.instance = self.workload.make(self.seed)
        self.instance_path.write_text(self.instance.to_json(), encoding="utf-8")
        self.polygons = self.np.parse_instance(self.instance_path.read_bytes())
        self.nest()
        return time.perf_counter() - t0

    def nest(self) -> float:
        """One `nestpoly nest` on the instance, timed; its output is then checked.

        Returns the seconds the call took, without the check.
        """
        rc, seconds = timed(self.np.cli.main, self.nest_argv())
        self.check_nest(rc)
        return seconds

    def nest_argv(self) -> List[str]:
        return ["nest", "-i", str(self.instance_path), "-o", str(self.output_path)]

    def check_nest(self, rc: int) -> None:
        if rc != 0:
            self.errors.append(f"nest exited non-zero on {self.workload.name}")
            return
        doc = json.loads(self.output_path.read_text(encoding="utf-8"))
        why = workloads.check_forest_rows(doc.get("forest"), self.instance.parent)
        if why is not None:
            self.errors.append(f"nest: {why}")

    def forest(self) -> float:
        """One nesting_forest call, timed; its result is then checked.

        Returns the seconds the call took, without the check.
        """
        result, seconds = timed(self.np.nesting_forest, self.polygons)
        if result.parent != self.instance.parent:
            self.errors.append("nesting_forest differs from the recorded forest")
        return seconds

    def count(self, ops: int, failed: int = 0) -> None:
        self.attempted += ops
        self.failed += failed

    def run_model_breaking(self) -> None:
        """Each model-breaking instance through `nest`; untimed."""
        for name, path in self.breaking_paths.items():
            err = io.StringIO()
            argv = ["nest", "-i", str(path), "-o", str(self.workdir / "broken-out.json")]
            try:
                with contextlib.redirect_stderr(err):
                    rc = self.np.cli.main(argv)
                outcome = f"exit {rc}"
            except Exception as exc:  # a traceback is a failed operation too
                rc, outcome = None, f"raised {type(exc).__name__}"
            lines = err.getvalue().strip().splitlines()
            ok = rc == 1 and len(lines) == 1
            self.breaking[name] = "ok" if ok else outcome
            self.count(1, 0 if ok else 1)

    def peak_mem_mb(self) -> float:
        """Peak memory allocated during one `nest`, under tracemalloc."""
        gc.collect()
        tracemalloc.start()
        try:
            rc = self.np.cli.main(self.nest_argv())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.check_nest(rc)
        return peak / 1e6


def timed(fn, *args):
    """Call fn(*args) after a collection; return its result and wall seconds."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def measure(run: Run, seconds: float) -> dict:
    """Untimed set-up, then rounds of one timed nest and one forest sample.

    Every time is scaled to the reference host speed (see hostspeed.py);
    the report lines also give the wall-time medians.
    """
    speed = hostspeed.HostSpeed()
    setups, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        taken = run.set_up()
        setup_wall.append(taken)
        setups.append(taken * speed.scale())
    peak = run.peak_mem_mb()
    speed.scale()
    samples: Dict[str, List[float]] = {"nest_s": [], "forest_s": []}
    wall: Dict[str, List[float]] = {"nest_s": [], "forest_s": []}
    end = time.perf_counter() + seconds
    while True:
        round_wall = {"nest_s": run.nest(), "forest_s": run.forest()}
        scale = speed.scale()
        for metric, seconds_taken in round_wall.items():
            wall[metric].append(seconds_taken)
            samples[metric].append(seconds_taken * scale)
        run.count(2)
        run.run_model_breaking()
        if time.perf_counter() >= end:
            break
    wall["setup_s"], samples["setup_s"] = setup_wall, setups
    run.report = [
        f"{m:12s} {statistics.median(samples[m]):.4f} s   median of {len(samples[m])}"
        f" (wall {statistics.median(wall[m]):.4f} s)"
        for m in ("nest_s", "forest_s", "setup_s")
    ]
    run.report.insert(2, f"peak_mem_mb  {peak:.3f} MB  one nest run under tracemalloc")
    run.report.append(
        f"calibration  {statistics.median(speed.times):.4f} s   median of {len(speed.times)}"
        f" (reference {hostspeed.REFERENCE_S} s)"
    )
    return {
        "nest_s": _metric(statistics.median(samples["nest_s"]), "s"),
        "forest_s": _metric(statistics.median(samples["forest_s"]), "s"),
        "peak_mem_mb": _metric(peak, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }


def measure_layers(run: Run, seconds: float) -> dict:
    """Per-layer times (medians over rounds of per-call sums) and counts.

    A round is: an untraced nesting_forest call (the overhead base), a
    traced `nest` (every layer except sweep.nesting_forest_s), a traced
    nesting_forest call (sweep.nesting_forest_s), and the status drive.
    Each time is scaled to the reference host speed, like the end-to-end
    ones.
    """
    run.set_up()
    tracer = layers.Tracer(run.np)
    samples: Dict[str, List[float]] = {}
    base: List[float] = []
    status_absent: Optional[str] = None
    counts: Dict[str, int] = {}

    def add(metric: str, ns: int, scale: float) -> None:
        samples.setdefault(metric, []).append(ns / 1e9 * scale)

    speed = hostspeed.HostSpeed()
    end = time.perf_counter() + seconds
    while True:
        base_wall = run.forest()
        tracer.install()
        try:
            run.nest()
            nest_totals = dict(tracer.totals_ns)
            tracer.reset()
            run.forest()
            forest_total = tracer.totals_ns["sweep.nesting_forest_s"]
        finally:
            tracer.uninstall()
        drive = None
        if status_absent is None:
            gc.collect()
            try:
                drive = layers.drive_status(run.np, run.polygons)
            except (AttributeError, TypeError) as exc:
                status_absent = f"{type(exc).__name__}: {exc}"
        scale = speed.scale()
        run.count(2)
        base.append(base_wall * scale)
        for metric, ns in nest_totals.items():
            if metric not in tracer.absent and metric != "sweep.nesting_forest_s":
                add(metric, ns, scale)
        if "sweep.nesting_forest_s" not in tracer.absent:
            add("sweep.nesting_forest_s", forest_total, scale)
        if drive is not None:
            for metric in layers.STATUS_METRICS:
                add(metric, drive[metric], scale)
            counts = {m: drive[m] for m in layers.COUNT_METRICS}
        run.run_model_breaking()
        if time.perf_counter() >= end:
            break

    metrics = {
        metric: _metric(statistics.median(times), "s")
        for metric, times in samples.items()
    }
    metrics["host.calibration_s"] = _metric(statistics.median(speed.times), "s")
    depths = [row["depth"] for row in workloads.forest_rows(run.instance.parent)]
    counts["count.n"] = run.instance.n
    counts["count.max_depth"] = max(depths)
    for metric, value in counts.items():
        metrics[metric] = _metric(value, "count")
    report = [f"{m:32s} {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    if "sweep.nesting_forest_s" in samples:
        overhead = statistics.median(samples["sweep.nesting_forest_s"]) / statistics.median(base)
        metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
        report.append(
            f"trace.overhead_ratio             {overhead:.4f} "
            f"(traced nesting_forest / untraced, medians of {len(base)})"
        )
    absent = list(tracer.absent)
    if status_absent is not None:
        absent += list(layers.STATUS_METRICS) + list(layers.COUNT_METRICS)
        report.append(f"status drive failed: {status_absent}")
    if absent:
        report.append("absent layers: " + ", ".join(absent))
    run.report = report
    return metrics


def run_workload(nestpoly, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = HERE / "out" / f"run-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(nestpoly, workload, seed, workdir)
        metrics = (measure_layers if trace else measure)(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    inst = run.instance
    print(f"workload {name}  seed {seed}  m={len(inst.polygons)}  n={inst.n}")
    for line in run.report:
        print("  " + line)
    print(f"  attempted {run.attempted}  failed {run.failed}")
    for broken, outcome in run.breaking.items():
        print(f"  model-breaking {broken}: {outcome} (expected exit 1, one line)")
    for err in run.errors[:5]:
        print(f"  WRONG: {err}", file=sys.stderr)
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered nesting benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nestpoly = load_program()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(nestpoly, name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
