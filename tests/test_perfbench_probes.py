"""The benchmark's per-layer probes still find what they time in nestpoly.

`perfbench/layers.py` looks up each layer by its exported name and drives
the sweep status through its public methods. A renamed export or a changed
event or status shape would drop metrics from a traced benchmark run; these
tests catch that here.
"""

import importlib.util
from pathlib import Path

import nestpoly

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
