"""The benchmark's per-layer probes still find what they time in nestpoly.

`perfbench/layers.py` looks up each layer by its exported name and drives
the sweep status through its public methods. A renamed export or a changed
event or status shape would drop metrics from a traced benchmark run; these
tests catch that here, and a short run of `perfbench/run.py` checks that
the benchmark still ends in its result line.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nestpoly

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer():
    layers = _load_layers()
    original = nestpoly.sweep.build_events
    tracer = layers.Tracer(nestpoly)
    try:
        tracer.install()
        assert tracer.absent == []
        assert nestpoly.sweep.build_events is not original
    finally:
        tracer.uninstall()
    assert nestpoly.sweep.build_events is original


def test_drive_status_reports_every_metric(small_corpus):
    layers = _load_layers()
    polygons = small_corpus[3]
    result = layers.drive_status(nestpoly, polygons)
    assert set(layers.STATUS_METRICS + layers.COUNT_METRICS) <= set(result)
    assert result["count.events"] == 2 * result["count.N"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_py_ends_in_a_result_line(trace):
    # The traced run covers every workload: each drives the layers its own
    # way, and a changed layer can drop one workload's metrics alone.
    workload = "all" if trace == "1" else "quadtree-decimal"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = {m["name"] for m in declared[kind]}
    if workload == "all":
        names = {
            f"{w['name']}.{name}" for w in declared["workloads"] for name in names
        }
    assert names <= set(result["metrics"])
    assert "absent layers" not in proc.stdout
    assert "status drive failed" not in proc.stdout
