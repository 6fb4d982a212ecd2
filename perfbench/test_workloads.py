"""Checks of the benchmark's own generators and checks, apart from the sweep.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import types

import pytest

import hostspeed
import layers
import run
import workloads
from nestpoly import (
    NestingForest,
    brute_force_forest,
    forest_document,
    parse_instance,
    validate,
)

SEEDS = range(4)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_recorded_forest_is_the_true_forest(name, seed):
    inst = workloads.WORKLOADS[name].make_small(seed)
    polygons = parse_instance(inst.to_json())
    report = validate(polygons)
    assert report.ok, report.violations
    assert brute_force_forest(polygons).parent == inst.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded(name):
    w = workloads.WORKLOADS[name]
    assert w.make_small(3).to_json() == w.make_small(3).to_json()
    assert w.make_small(3).to_json() != w.make_small(4).to_json()


def test_small_instances_have_the_workload_shapes():
    grid = workloads.WORKLOADS["convex-grid"].make_small(0)
    assert all(len(v) >= 20 for pid, v in grid.polygons if pid.endswith("o"))
    assert all(len(v) >= 10 for pid, v in grid.polygons if pid.endswith("i"))
    notched = workloads.WORKLOADS["nested-notched"].make_small(0)
    assert {len(v) for _, v in notched.polygons} == {16}
    assert max(r["depth"] for r in workloads.forest_rows(notched.parent)) == 5
    quad = workloads.WORKLOADS["quadtree-decimal"].make_small(0)
    coords = {c for _, v in quad.polygons for p in v for c in p}
    assert all(isinstance(c, str) for c in coords)
    assert any(len(c) >= 5 for c in coords)


@pytest.mark.parametrize("num,level,text", [
    (1, 7, "0.0078125"), (3, 2, "0.75"), (4, 2, "1.0"), (5, 0, "5.0"),
    (13, 3, "1.625"),
])
def test_decimal(num, level, text):
    assert workloads._decimal(num, level) == text


def test_forest_rows_match_the_program_document():
    inst = workloads.WORKLOADS["nested-notched"].make_small(1)
    doc = forest_document(NestingForest(dict(inst.parent)))
    assert workloads.forest_rows(inst.parent) == doc["forest"]


def test_check_forest_rows_catches_each_fault():
    parent = {"A": None, "B": "A", "C": "B"}
    rows = workloads.forest_rows(parent)
    check = workloads.check_forest_rows
    assert check(rows, parent) is None
    assert "more than once" in check(rows + [dict(rows[0])], parent)
    assert "sorted" in check(rows[::-1], parent)
    bad_depth = [dict(r) for r in rows]
    bad_depth[2]["depth"] = 5
    assert "depth" in check(bad_depth, parent)
    assert "differ" in check(rows[:2], parent)
    assert "differ" in check(rows, {"A": None, "B": "A", "C": "A"})
    assert "unknown parent" in check(rows[1:], parent)
    assert "malformed" in check([{"id": "A"}], parent)


def test_calibration_work_is_fixed():
    # Every reported time is scaled by this loop's time, so changing its
    # work would shift every figure; its checksum pins the work.
    assert hostspeed.calibrate() == 1927658
    speed = hostspeed.HostSpeed()
    assert speed.scale() > 0
    assert len(speed.times) == 2


def test_model_breaking_instances_break_the_model():
    for inst in workloads.MODEL_BREAKING.values():
        assert not validate(parse_instance(inst.to_json())).ok


def _small(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, make=w.make_small)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_checks_every_result(name, tmp_path):
    r = run.Run(run.load_program(), _small(name), 2, tmp_path)
    metrics = run.measure(r, 0)
    assert set(metrics) == {"nest_s", "forest_s", "peak_mem_mb", "setup_s"}
    assert r.errors == []
    broken = len(workloads.MODEL_BREAKING) if r.workload.breaks_model else 0
    assert r.attempted == 2 + broken
    # Each model-breaking instance fails until the sweep rejects it.
    assert r.failed == sum(v != "ok" for v in r.breaking.values())


def test_traced_run_reports_every_layer(tmp_path):
    r = run.Run(run.load_program(), _small("quadtree-decimal"), 2, tmp_path)
    metrics = run.measure_layers(r, 0)
    expected = (
        [m for m, _, _ in layers.LAYERS]
        + list(layers.STATUS_METRICS)
        + list(layers.COUNT_METRICS)
        + ["count.n", "count.max_depth", "trace.overhead_ratio", "host.calibration_s"]
    )
    assert sorted(metrics) == sorted(expected)
    assert r.errors == []
    assert metrics["count.max_depth"]["value"] == 3


def test_missing_layer_is_reported_absent():
    pkg = types.ModuleType("fakepkg")
    calls = []
    pkg.parse_instance = lambda text: calls.append(text) or []
    tracer = layers.Tracer(pkg)
    tracer.install()
    try:
        pkg.parse_instance("x")
    finally:
        tracer.uninstall()
    assert calls == ["x"]
    assert tracer.totals_ns["instance_io.parse_s"] > 0
    assert "instance_io.parse_s" not in tracer.absent
    assert "sweep.build_events_s" in tracer.absent
    assert "forest.depths_s" in tracer.absent
