"""Seeded instance generator: determinism, validity, touching, transform."""

import sys
from fractions import Fraction

import pytest

import nestpoly.generator
from nestpoly import (
    GenConfig,
    brute_force_forest,
    generate,
    make_polygon,
    nesting_forest,
    serialize_instance,
    transform,
    validate,
)
from nestpoly.segments import decompose

from reference import checked_forest, touches


def test_single_convex_root():
    cfg = GenConfig(seed=0, n_roots=1, max_depth=0, shape_mix={"convex": 1})
    polygons = generate(cfg)
    assert len(polygons) == 1
    assert len(decompose(polygons[0]).segments) == 2


def test_determinism():
    cfg = GenConfig(seed=7, n_roots=2, max_depth=2, touching_prob=1.0)
    a = serialize_instance(generate(cfg))
    b = serialize_instance(generate(cfg))
    assert a == b


def test_all_children_touch_with_prob_one():
    cfg = GenConfig(seed=7, n_roots=2, max_depth=2, touching_prob=1.0)
    polygons = generate(cfg)
    assert validate(polygons).ok
    by_id = {p.id: p for p in polygons}
    parent = brute_force_forest(polygons).parent
    children = [p for p in polygons if parent[p.id] is not None]
    assert children
    touching = [p for p in children if touches(p, by_id[parent[p.id]])]
    assert len(touching) >= 0.9 * len(children)


def test_generated_instances_validate(small_corpus):
    for polygons in small_corpus[:20]:
        report = validate(polygons)
        assert report.ok, report.violations


def test_integer_coordinates_within_span(small_corpus):
    from conftest import corpus_config

    for seed, polygons in enumerate(small_corpus[:10]):
        span = corpus_config(seed).coordinate_span
        for p in polygons:
            for v in p.vertices:
                assert isinstance(v.x, int) and isinstance(v.y, int)
                assert 0 <= v.x <= span and 0 <= v.y <= span


def test_shape_mix_subsets():
    for shape in ("convex", "staircase", "star"):
        cfg = GenConfig(
            seed=3, n_roots=2, max_depth=1, shape_mix={shape: 1},
            touching_prob=0.5,
        )
        polygons = generate(cfg)
        assert validate(polygons).ok


@pytest.mark.parametrize("seed", [1, 3])
def test_star_keeps_one_point_per_direction(monkeypatch, seed):
    # Two of a star's points on one ray from its centre compare equal in
    # _make_star's scan; the farther is kept, so the cycle stays simple.
    seen = []
    half_cmp = nestpoly.generator._half_cmp

    def spy(a, b):
        result = half_cmp(a, b)
        if sys._getframe(1).f_code.co_name == "_make_star":
            seen.append(result)
        return result

    monkeypatch.setattr(nestpoly.generator, "_half_cmp", spy)
    cfg = GenConfig(
        seed=seed, n_roots=4, max_depth=2, shape_mix={"star": 1},
        coordinate_span=1000,
    )
    polygons = generate(cfg)
    assert 0 in seen
    assert validate(polygons).ok
    assert nesting_forest(polygons).parent == (
        brute_force_forest(polygons).parent
    )


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n_roots=0)
    with pytest.raises(ValueError):
        GenConfig(max_depth=-1)
    with pytest.raises(ValueError):
        GenConfig(touching_prob=1.5)
    with pytest.raises(ValueError):
        GenConfig(shape_mix={"blob": 1})
    with pytest.raises(ValueError, match="weights must be non-negative"):
        GenConfig(shape_mix={"convex": -1, "star": 2})
    # random.choices raises on a total that is not finite.
    inf, nan = float("inf"), float("nan")
    for weights in ({"convex": inf}, {"convex": 1, "star": nan}):
        with pytest.raises(ValueError, match="weights must have a finite sum$"):
            GenConfig(shape_mix=weights)
    for weights in ({"convex": 10**400}, {"convex": 1e308, "star": 1e308}):
        with pytest.raises(OverflowError):
            GenConfig(shape_mix=weights)


def test_config_types():
    assert GenConfig(children_per_node=[0, 3]).children_per_node == (0, 3)
    text = serialize_instance(generate(GenConfig(seed="abc")))
    assert text == serialize_instance(generate(GenConfig(seed="abc")))
    for bad in (
        {"n_roots": True},
        {"max_depth": 1.0},
        {"coordinate_span": 10.0**6},
        {"children_per_node": (1,)},
        {"children_per_node": (1, 2.0)},
        {"touching_prob": None},
        {"seed": 1.0},
        {"shape_mix": [("convex", 1)]},
    ):
        with pytest.raises(TypeError):
            GenConfig(**bad)
    # bool is an int subclass, and a weight that is a string fails < 0.
    for bad, message in (
        ({"touching_prob": True}, "touching_prob must be a number"),
        ({"shape_mix": {"convex": True}}, "shape_mix weights must be numbers"),
        ({"shape_mix": {"convex": "2"}}, "shape_mix weights must be numbers"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            GenConfig(**bad)


def test_transform_identity(small_corpus):
    polygons = small_corpus[0]
    same = transform(polygons, scale=1, dx=0, dy=0)
    assert [p.vertices for p in same] == [p.vertices for p in polygons]


def test_transform_preserves_forest(small_corpus):
    polygons = small_corpus[1]
    base = checked_forest(polygons)
    scaled = transform(polygons, scale=10**6, dx=-3, dy=0)
    assert checked_forest(scaled) == base
    shrunk = transform(polygons, scale=Fraction(1, 7), dx=0, dy=0)
    assert checked_forest(shrunk) == base
    assert brute_force_forest(shrunk) == base


def test_transform_scale_zero():
    with pytest.raises(ValueError, match="scale must be non-zero"):
        transform([make_polygon("T", [(0, 0), (4, 0), (2, 3)])], scale=0)
