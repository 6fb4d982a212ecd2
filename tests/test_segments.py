"""Maximal x-monotone segment decomposition and interior-side parity."""

import gc
import importlib.util
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from nestpoly import (
    generate,
    make_polygon,
    nesting_forest,
    parse_instance,
    transform,
    validate,
)
from nestpoly.errors import NestpolyError, OutOfDomain, ParityInconsistency
from nestpoly.geometry import Edge, Point
from nestpoly.segments import MaxSegment, assign_parities, decompose

from conftest import corpus_config, segments_of, square, top_bottom
from reference import (
    _crosses_reversal,
    _near_regular_ngon,
    _random_subpath,
    check_terminal_monotone,
    chain,
    check_unique_cover,
    count_N,
    parity,
    parity_oracle,
    satisfies_property_O,
    scan_runs,
    segment_edges,
    span_edges,
)
from test_io_cli import REJECTED_PARITIES


def edge(ax, ay, bx, by):
    return Edge(Point(ax, ay), Point(bx, by))


def connector_edges(polygon, decomposition):
    """The polygon's edges that lie on no segment, in boundary order."""
    on_segments = {
        frozenset(e) for s in decomposition.segments for e in segment_edges(s)
    }
    return [e for e in polygon.edges if frozenset(e) not in on_segments]


def test_decompose_square():
    p = make_polygon("S", [(0, 0), (4, 0), (4, 4), (0, 4)])
    d = decompose(p)
    assert len(d.segments) == 2
    span_sets = sorted(
        tuple(sorted((e.a.y, e.b.y))) for s in d.segments for e in span_edges(s)
    )
    assert span_sets == [(0, 0), (4, 4)]
    # The two vertical edges are connector runs, not segment edges.
    connectors = connector_edges(p, d)
    assert len(connectors) == 2
    assert all(e.is_vertical for e in connectors)


def test_decompose_triangle():
    p = make_polygon("T", [(0, 0), (4, 0), (2, 3)])
    d = decompose(p)
    assert len(d.segments) == 2
    sizes = sorted(len(chain(s)[0]) - 1 for s in d.segments)
    assert sizes == [1, 2]
    assert connector_edges(p, d) == []


def test_decompose_staircase_absorbs_interior_vertical():
    p = make_polygon("Z", [(0, 0), (4, 0), (4, 2), (6, 2), (6, 6), (0, 6)])
    d = decompose(p)
    assert len(d.segments) == 2
    bottom = next(s for s in d.segments if len(chain(s)[0]) == 4)
    assert [e.is_vertical for e in segment_edges(bottom)] == [False, True, False]
    bxs, bys = chain(bottom)
    assert (bxs[0], bys[0], bxs[-1], bys[-1]) == (0, 0, 6, 2)
    top = next(s for s in d.segments if len(chain(s)[0]) == 2)
    top_edge = segment_edges(top)[0]
    assert top_edge == edge(0, 6, 6, 6) or top_edge == edge(6, 6, 0, 6)
    connectors = sorted(connector_edges(p, d))
    assert connectors == [
        Edge(Point(0, 6), Point(0, 0)),
        Edge(Point(6, 2), Point(6, 6)),
    ]


def test_property_o_examples():
    assert satisfies_property_O([edge(0, 0, 4, 0)])
    assert not satisfies_property_O([edge(0, 0, 4, 0), edge(4, 0, 2, 3)])


def test_property_o_checkers_on_decompose_output(small_corpus):
    for polygons in small_corpus[:10]:
        for p in polygons:
            for s in decompose(p).segments:
                edges = segment_edges(s)
                assert satisfies_property_O(edges)
                assert check_terminal_monotone(edges)
                assert check_unique_cover(edges)


def test_checker_triple_agreement_on_random_subpaths(small_corpus):
    rng = random.Random(99)
    flat = [p for polygons in small_corpus for p in polygons]
    checked = 0
    while checked < 3000:
        path = _random_subpath(rng, rng.choice(flat))
        a = satisfies_property_O(path)
        b = check_terminal_monotone(path)
        c = check_unique_cover(path)
        assert a == b == c
        if _crosses_reversal(path):
            assert not a
        checked += 1


def test_parities_square():
    p = make_polygon("S", [(0, 0), (4, 0), (4, 4), (0, 4)])
    top, bottom = top_bottom(p)
    assert parity(top) == 1 and chain(top)[1][0] == 4
    assert parity(bottom) == 0 and chain(bottom)[1][0] == 0


def test_parities_triangle():
    p = make_polygon("T", [(0, 0), (4, 0), (2, 3)])
    upper = next(s for s in segments_of(p) if len(chain(s)[0]) == 3)
    base = next(s for s in segments_of(p) if len(chain(s)[0]) == 2)
    assert parity(upper) == 1
    assert parity(base) == 0


def test_count_N_square():
    p = make_polygon("S", [(0, 0), (4, 0), (4, 4), (0, 4)])
    top, bottom = top_bottom(p)
    assert count_N(p, top, 2) == 1
    assert count_N(p, bottom, 2) == 2
    with pytest.raises(OutOfDomain):
        count_N(p, top, 0)


def test_count_N_parity_constant(small_corpus):
    rng = random.Random(5)
    for polygons in small_corpus[:6]:
        for p in polygons:
            d = assign_parities(p, decompose(p))
            for s in d.segments:
                xs, _ = chain(s)
                lo, hi = xs[0], xs[-1]
                seen = set()
                for _ in range(3):
                    xi = lo + Fraction(rng.randint(1, 999), 1000) * (hi - lo)
                    seen.add(count_N(p, s, xi, d) % 2)
                assert len(seen) == 1
                assert seen.pop() == parity(s)


def test_convex_ngons_two_segments():
    rng = random.Random(17)
    for n in range(3, 13):
        for _ in range(3):
            p = _near_regular_ngon(n, rng.uniform(0, 2 * math.pi))
            assert len(decompose(p).segments) == 2


def test_structural_invariants(small_corpus):
    for polygons in small_corpus[:10]:
        for p in polygons:
            d = decompose(p)
            segs = d.segments
            assert len(segs) % 2 == 0 and len(segs) >= 2
            # Pairwise edge-disjoint; span edges cover every non-vertical
            # polygon edge exactly once.
            seen = {}
            for s in segs:
                for e in span_edges(s):
                    key = frozenset([e.a, e.b])
                    assert key not in seen
                    seen[key] = s
            nonvert = [e for e in p.edges if not e.is_vertical]
            assert len(seen) == len(nonvert)
            for e in nonvert:
                assert frozenset([e.a, e.b]) in seen
            # Distinct segments meet in at most 2 points, only terminals.
            for i, a in enumerate(segs):
                axs, ays = chain(a)
                va = set(zip(axs, ays))
                for b in segs[i + 1:]:
                    bxs, bys = chain(b)
                    vb = set(zip(bxs, bys))
                    common = va & vb
                    assert len(common) <= 2
                    for v in common:
                        assert v in ((axs[0], ays[0]), (axs[-1], ays[-1]))
                        assert v in ((bxs[0], bys[0]), (bxs[-1], bys[-1]))
            assign_parities(p, d)
            assert sum(parity(s) for s in segs) == len(segs) // 2
            for i, s in enumerate(segs):
                assert parity(s) != parity(segs[(i + 1) % len(segs)])


# Parity from orientation ----------------------------------------------------


# Every corpus polygon runs counter-clockwise. A reversal or a mirror makes
# it clockwise; a quarter turn keeps the orientation but moves the topmost
# vertex and the x-extremes.
CLOCKWISE = {
    "reversed": lambda vs: vs[::-1],
    "mirrored": lambda vs: [(-x, y) for x, y in vs],
}
TURNED = {"quarter turn": lambda vs: [(-y, x) for x, y in vs]}


def test_parities_follow_orientation_under_plane_moves(
    small_corpus, bottom_edge_pair, shared_edge_squares, vertex_touch_pair
):
    # The hand fixtures reach each tie-break rule. On a shared top edge the
    # area rule alone puts the container's edge above the inner one's.
    top_edge_pair = [
        square("O", 0, 0, 4), make_polygon("I", [(0, 4), (2, 2), (4, 4)])
    ]
    fixtures = [
        top_edge_pair, bottom_edge_pair, shared_edge_squares, vertex_touch_pair
    ]
    for polygons in fixtures + small_corpus:
        expected = nesting_forest(polygons).parent
        assert all(p.twice_area > 0 for p in polygons)
        for name, move in {**CLOCKWISE, **TURNED}.items():
            moved = [make_polygon(p.id, move(p.vertices)) for p in polygons]
            assert all((p.twice_area < 0) == (name in CLOCKWISE)
                       for p in moved), name
            assert nesting_forest(moved).parent == expected, name
            for p in moved:
                for s in segments_of(p):
                    assert parity(s) == parity_oracle(p, s), (name, p.id)


def test_random_cycles_against_validate():
    # Every cycle that validate() accepts gets the oracle's parities; every
    # cycle that the sweep rejects is one that validate() rejects.
    rng = random.Random(17)
    accepted = rejected = 0
    for _ in range(4000):
        k = rng.randint(3, 9)
        cycle = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(k)]
        try:
            p = make_polygon("R", cycle)
        except NestpolyError:
            continue
        simple = validate([p]).ok
        try:
            forest = nesting_forest([p])
        except NestpolyError:
            assert not simple, cycle
            rejected += 1
            continue
        if simple:
            assert forest.parent == {"R": None}
            for s in segments_of(p):
                assert parity(s) == parity_oracle(p, s), cycle
            accepted += 1
    assert accepted > 500 and rejected > 500


# decompose against the multi-pass run scan -----------------------------------


def _load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        root = Path(__file__).resolve().parents[1]
        path = root / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # Registered before it runs: its dataclasses look their module up.
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].WORKLOADS


def small_workload_polygons(name):
    """The polygons of seeds 1-3 of a benchmark workload's small size."""
    make_small = _load_workloads()[name].make_small
    return [
        p for seed in (1, 2, 3)
        for p in parse_instance(make_small(seed).to_json())
    ]


def columns(decomposition):
    return [
        (s.polygon_id, s.polygon, s.first, s.last, parity(s))
        for s in decomposition.segments
    ]


def test_decompose_equals_run_scan():
    polygons = []
    for seed in range(200):
        instance = generate(corpus_config(seed))
        polygons += instance
        polygons += transform(instance, scale=Fraction(1, 8))
        polygons += transform(instance, scale=Fraction(3, 1000))
    for name in ("convex-grid", "nested-notched", "quadtree-decimal"):
        polygons += small_workload_polygons(name)
    rng = random.Random(16)
    while len(polygons) < 30000:
        k = rng.randint(3, 8)
        cycle = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(k)]
        try:
            polygons.append(make_polygon("R", cycle))
        except NestpolyError:
            pass
    for p in polygons:
        assert columns(decompose(p)) == columns(scan_runs(p)), p


def comb(teeth):
    """A comb of 4 * teeth + 2 vertices: a spine between x = 5 and 6 with
    teeth reaching left to x = 0, each a leftward and a rightward run."""
    width, top = 5, 3 * teeth
    cycle = [(width + 1, 0), (width + 1, top), (0, top), (0, top - 1)]
    for y in range(top - 1, 0, -3):
        cycle += [(width, y), (width, y - 2)]
        if y > 2:
            cycle += [(0, y - 2), (0, y - 3)]
    return cycle


def large_cycles():
    """(cycle, number of segments): convex n-gons for n = 4 .. 4096 and
    combs of 22, 262 and 4102 vertices, each started at four vertices and
    run both ways round."""
    shapes = []
    for n in (4 << k for k in range(11)):
        # At a rotation of pi / n the extremes of x lie on vertical edges,
        # one of them the wrap edge (n - 1, 0).
        for rot in (math.pi / n, 0.1):
            shapes.append((_near_regular_ngon(n, rot).vertices, 2))
    shapes += [(comb(teeth), 2 * teeth) for teeth in (5, 65, 1025)]
    for cycle, runs in shapes:
        n = len(cycle)
        for start in (0, 1, n // 3, n - 1):
            turned = list(cycle[start:]) + list(cycle[:start])
            yield turned, runs
            yield turned[::-1], runs


def test_decompose_equals_run_scan_on_large_polygons():
    wrapped = 0
    for cycle, runs in large_cycles():
        p = make_polygon("L", cycle)
        got = decompose(p)
        assert len(got.segments) == runs, len(cycle)
        assert columns(got) == columns(scan_runs(p)), len(cycle)
        wrapped += min(min(s.first, s.last) for s in got.segments) < 0
    # A run passes vertex 0 in 166 of the 200 cycles.
    assert wrapped == 166


# Hand cycles: the first group has two segments each, with an extreme of x
# on a vertical edge (the wrap edge (n - 1, 0) included) or a vertical edge
# inside a run; the second has three vertices at an extreme, an extreme at
# two vertices apart, or a chain that is not monotone.
TWO_SEGMENT_CYCLES = {
    "vertical edge at the min": [(2, 0), (4, 2), (2, 4), (0, 3), (0, 1)],
    "vertical edge at the max": [(0, 2), (2, 0), (4, 1), (4, 3), (2, 4)],
    "vertical min on the wrap edge": [(0, 3), (2, 4), (4, 2), (2, 0), (0, 1)],
    "vertical max on the wrap edge": [(4, 3), (2, 4), (0, 2), (2, 0), (4, 1)],
    "absorbed interior vertical": [
        (0, 0), (4, 0), (4, 2), (6, 2), (6, 6), (0, 6)
    ],
    "bowtie": [(0, 0), (2, 2), (2, 0), (0, 2)],
}
OTHER_CYCLES = {
    "three collinear at the min": [(0, 0), (4, 0), (4, 4), (0, 4), (0, 2)],
    "three collinear at the max": [(0, 0), (4, 0), (4, 2), (4, 4), (0, 4)],
    "min at two vertices apart": [(0, 0), (3, 2), (0, 4), (2, 2)],
    "a chain not monotone": [
        (0, 0), (6, 0), (6, 4), (4, 4), (5, 2), (1, 3), (0, 4)
    ],
}


def test_split_hand_cases():
    for name, cycle in {**TWO_SEGMENT_CYCLES, **OTHER_CYCLES}.items():
        p = make_polygon("P", cycle)
        got = decompose(p)
        assert columns(got) == columns(scan_runs(p)), name
        if name in TWO_SEGMENT_CYCLES:
            assert len(got.segments) == 2, name
    # The min-edge case, as two chains left to right: the upper chain's
    # first edge leaves vertex 1, the lower chain's leaves vertex 4.
    p = make_polygon("P", TWO_SEGMENT_CYCLES["vertical edge at the min"])
    assert [chain(s) for s in decompose(p).segments] == [
        ((0, 2, 4), (3, 4, 2)),
        ((0, 2, 4), (1, 0, 2)),
    ]


# Index pairs that pass vertex 0 ----------------------------------------------


# An x-monotone decagon with a vertical edge on each chain, started at three
# of its vertices, and the cycle above that is not x-monotone, started at
# two: (first, last, parity) of each segment in decompose's order. A
# negative first is a rightward chain that passes vertex 0, a negative last
# a leftward one.
DECAGON = [
    (0, 3), (1, 1), (3, 1), (3, 0), (5, 1), (6, 3), (5, 5), (3, 6), (3, 5),
    (1, 5),
]
NOT_MONOTONE = OTHER_CYCLES["a chain not monotone"]
DECAGON_STARTS = {
    "rightward chain passes vertex 0": (
        DECAGON[3:] + DECAGON[:3], [(7, 2, 1), (-3, 2, 0)]
    ),
    "leftward chain passes vertex 0": (
        DECAGON[7:] + DECAGON[:7], [(3, 8, 0), (3, -2, 1)]
    ),
    "leftward chain ends at vertex 0": (DECAGON, [(0, 5, 0), (0, -5, 1)]),
}
NOT_MONOTONE_STARTS = {
    "rightward run passes vertex 0": (
        NOT_MONOTONE[1:] + NOT_MONOTONE[:1],
        [(2, 1, 1), (2, 3, 0), (5, 3, 1), (-1, 0, 0)],
    ),
    "leftward run passes vertex 0": (
        NOT_MONOTONE[5:] + NOT_MONOTONE[:5],
        [(2, 3, 0), (5, 4, 1), (5, 6, 0), (1, -1, 1)],
    ),
}


def test_index_pairs_that_pass_vertex_0():
    # Every start vertex gives the same chains, read off the same columns.
    decagon_chains = sorted([
        ((0, 1, 3, 3, 5, 6), (3, 1, 1, 0, 1, 3)),
        ((0, 1, 3, 3, 5, 6), (3, 5, 5, 6, 5, 3)),
    ])
    not_monotone_chains = sorted([
        ((0, 6), (0, 0)), ((4, 6), (4, 4)), ((4, 5), (4, 2)),
        ((0, 1, 5), (4, 3, 2)),
    ])
    for name, (cycle, want) in {
        **DECAGON_STARTS, **NOT_MONOTONE_STARTS
    }.items():
        p = make_polygon("P", cycle)
        got = decompose(p)
        pairs = [(s.first, s.last, parity(s)) for s in got.segments]
        assert pairs == want, name
        assert columns(scan_runs(p)) == columns(got), name
        chains = sorted(chain(s) for s in got.segments)
        want_chains = (
            decagon_chains if name in DECAGON_STARTS else not_monotone_chains
        )
        assert chains == want_chains, name


def test_segments_refer_to_their_polygon_without_copies():
    # A segment holds its polygon and two indices into its columns, and
    # reads its parity and polygon id from them; one more slot holds its
    # status entry while it is live. On the notched squares, one edge per
    # segment, segments that copied their chain's two columns kept 238
    # bytes each on CPython 3.11, segments that also stored parity and
    # polygon id kept 127, and these kept 111 before the entry slot. The
    # slot adds 8 bytes: 80 -> 88 on CPython 3.11.7, measured alone.
    assert MaxSegment.__slots__ == ("polygon", "first", "last", "entry")
    make_small = _load_workloads()["nested-notched"].make_small
    polygons = parse_instance(make_small(1).to_json())
    for p in polygons:
        assert all(s.polygon is p for s in decompose(p).segments)
    kept = [None] * len(polygons)
    # A full collection also empties CPython's free lists, so that every
    # object decompose keeps is a new allocation.
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, p in enumerate(polygons):
            kept[i] = decompose(p)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    n_segments = sum(len(d.segments) for d in kept)
    assert n_segments == 8 * len(polygons)
    assert retained / n_segments < 120


def test_split_rejected_parities_match_scan():
    for cycle, text in REJECTED_PARITIES:
        p = make_polygon("P", cycle)
        assert columns(decompose(p)) == columns(scan_runs(p))
        with pytest.raises(ParityInconsistency) as exc:
            assign_parities(p, decompose(p))
        assert str(exc.value) == f"polygon 'P': {text}"


@pytest.mark.parametrize(
    "cycle",
    [
        # The top row is found at x = 3, 2, 6, 5, out of x order, both ways
        # round.
        [[3, 4], [2, 4], [0, 0], [6, 0], [6, 4], [5, 4], [5, 2], [3, 2]],
        [[3, 2], [5, 2], [5, 4], [6, 4], [6, 0], [0, 0], [2, 4], [3, 4]],
        # The leftmost top vertex is vertex 0, then the last vertex.
        [[0, 4], [0, 0], [4, 0], [4, 4]],
        [[0, 0], [4, 0], [4, 4], [2, 4], [0, 4]],
        # (4, 4) repeats right of the leftmost top vertex, before it and
        # after it in the cycle; only a repeat of the leftmost one counts.
        [[4, 4], [8, 4], [8, 2], [5, 3], [4, 4], [0, 4], [0, 0], [4, 0]],
        [[0, 4], [0, 0], [4, 0], [4, 4], [8, 4], [8, 2], [5, 3], [4, 4]],
    ],
)
def test_top_row_walk_accepts(cycle):
    p = make_polygon("P", cycle)
    deco = decompose(p)
    assert assign_parities(p, deco) is deco

