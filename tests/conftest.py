"""Shared fixtures: hand-built polygon instances and a seeded corpus."""

import pytest

from nestpoly import GenConfig, generate, make_polygon
from nestpoly.segments import assign_parities, decompose

from reference import parity


def square(pid, x0, y0, side):
    return make_polygon(
        pid,
        [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)],
    )


def segments_of(polygon):
    """Parity-assigned maximal segments of one polygon."""
    return assign_parities(polygon, decompose(polygon)).segments


def top_bottom(polygon):
    """(top segment, bottom segment) of a convex polygon."""
    a, b = segments_of(polygon)
    if parity(a) == 1:
        return a, b
    return b, a


def corpus_config(seed):
    """Deterministic mixed-size config for the seeded instance corpus.

    Sizes stay within 35 polygons and well under 2000 vertices per
    instance; the touching probability cycles through 0, 0.5 and 1.
    """
    touching = (0.0, 0.5, 1.0)[seed % 3]
    if seed % 10 == 0:
        roots, depth = 5, 2
    elif seed % 3 == 0:
        roots, depth = 3, 2
    else:
        roots, depth = 2, 1
    return GenConfig(
        seed=seed,
        n_roots=roots,
        max_depth=depth,
        touching_prob=touching,
    )


@pytest.fixture(scope="session")
def small_corpus():
    """60 generated instances for module-level property tests."""
    return [generate(corpus_config(seed)) for seed in range(60)]


# Hand-built touching fixtures ------------------------------------------------


@pytest.fixture
def nested_squares():
    return [square("O", 0, 0, 10), square("I", 2, 2, 6)]


@pytest.fixture
def shared_edge_squares():
    # A and B share the whole vertical edge x=2; interiors are disjoint.
    return [square("A", 0, 0, 2), square("B", 2, 0, 2)]


@pytest.fixture
def vertex_touch_pair():
    # Triangle I touches square O at O's boundary vertex-wise at (0, 5).
    o = square("O", 0, 0, 10)
    i = make_polygon("I", [(0, 5), (5, 2), (5, 8)])
    return [o, i]


@pytest.fixture
def bottom_edge_pair():
    # I shares O's full bottom edge; the tie falls through to the area rule.
    o = square("O", 0, 0, 4)
    i = make_polygon("I", [(0, 0), (4, 0), (2, 2)])
    return [o, i]


@pytest.fixture
def crossing_pair():
    # Two quadrilaterals whose upper chains properly cross: invalid input.
    p = make_polygon("P", [(0, 0), (8, 0), (8, 4), (0, 8)])
    q = make_polygon("Q", [(0, -1), (8, -1), (8, 8), (0, 4)])
    return [p, q]
