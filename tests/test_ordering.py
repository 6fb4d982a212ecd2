"""Vertical order of live segments at a sweep abscissa."""

import random
from fractions import Fraction

from nestpoly.sweep import build_events

from conftest import segments_of, square, top_bottom
from reference import Rel, chain, cmp_at, parity, span_edges


def test_cmp_at_nested_squares_chain(nested_squares):
    o, i = nested_squares
    top_o, bot_o = top_bottom(o)
    top_i, bot_i = top_bottom(i)
    chain = [top_o, top_i, bot_i, bot_o]  # y-values 10 > 8 > 2 > 0 at x=3
    for a_idx, a in enumerate(chain):
        for b in chain[a_idx + 1:]:
            assert cmp_at(3, a, b) is Rel.BEFORE
            assert cmp_at(3, b, a) is Rel.AFTER


def test_cmp_at_shared_bottom_edge_area_tiebreak(bottom_edge_pair):
    o, i = bottom_edge_pair
    _, bot_o = top_bottom(o)
    bot_i = next(s for s in segments_of(i) if parity(s) == 0)
    # Same height and slope at x=1, both with interior above: the smaller
    # polygon comes first.
    assert o.area == 16 and i.area == 4
    assert cmp_at(1, bot_i, bot_o) is Rel.BEFORE
    assert cmp_at(1, bot_o, bot_i) is Rel.AFTER


def test_cmp_at_identity():
    top, _ = top_bottom(square("S", 0, 0, 4))
    assert cmp_at(2, top, top) is Rel.SAME



def _insert_order(segments):
    return [e.segment for e in build_events(segments) if e.kind == "insert"]


def test_insertion_cmp_disjoint_extents():
    # Every segment of A starts left of every segment of B, so all of A's
    # inserts come first, whatever order the segments are given in.
    a = segments_of(square("A", 0, 0, 4))
    b = segments_of(square("B", 10, 0, 4))
    for given in (a + b, b + a):
        order = _insert_order(given)
        assert {s.polygon_id for s in order[:len(a)]} == {"A"}
        assert {s.polygon_id for s in order[len(a):]} == {"B"}


def test_insertion_cmp_shared_min_x(vertex_touch_pair):
    o, i = vertex_touch_pair
    top_o, _ = top_bottom(o)
    top_i = next(s for s in segments_of(i) if parity(s) == 1)
    assert chain(top_o)[0][0] == chain(top_i)[0][0] == 0
    # Both start at x = 0; the outer top lies above and is inserted first.
    for given in ([top_o, top_i], [top_i, top_o]):
        assert _insert_order(given) == [top_o, top_i]
    assert cmp_at(0, top_o, top_i) is Rel.BEFORE
    assert cmp_at(0, top_i, top_i) is Rel.SAME


def _live_pairs(polygons, rng, count):
    """Random (xi, a, b) with xi in both half-open x-extents."""
    segs = [s for p in polygons for s in segments_of(p)]
    out = []
    while len(out) < count:
        a, b = rng.sample(segs, 2)
        (axs, _), (bxs, _) = chain(a), chain(b)
        lo = max(axs[0], bxs[0])
        hi = min(axs[-1], bxs[-1])
        if lo >= hi:
            continue
        xi = lo + Fraction(rng.randint(0, 999), 1000) * (hi - lo)
        out.append((xi, a, b))
    return out


def test_cmp_at_order_laws(small_corpus):
    rng = random.Random(23)
    polygons = small_corpus[0]
    for xi, a, b in _live_pairs(polygons, rng, 400):
        ab = cmp_at(xi, a, b)
        ba = cmp_at(xi, b, a)
        assert ab in (Rel.BEFORE, Rel.AFTER)
        assert ba is (Rel.AFTER if ab is Rel.BEFORE else Rel.BEFORE)


def test_cmp_at_transitive(small_corpus):
    rng = random.Random(29)
    segs = [s for p in small_corpus[1] for s in segments_of(p)]
    done = 0
    while done < 300:
        a, b, c = rng.sample(segs, 3)
        lo = max(chain(s)[0][0] for s in (a, b, c))
        hi = min(chain(s)[0][-1] for s in (a, b, c))
        if lo >= hi:
            continue
        xi = lo + Fraction(rng.randint(0, 999), 1000) * (hi - lo)
        trio = sorted(
            [a, b, c],
            key=lambda s: sum(
                1 for t in (a, b, c) if t is not s and cmp_at(xi, t, s) is Rel.BEFORE
            ),
        )
        assert cmp_at(xi, trio[0], trio[1]) is Rel.BEFORE
        assert cmp_at(xi, trio[1], trio[2]) is Rel.BEFORE
        assert cmp_at(xi, trio[0], trio[2]) is Rel.BEFORE
        done += 1


def test_cmp_at_xi_consistency(small_corpus):
    rng = random.Random(31)
    polygons = small_corpus[2]
    for _, a, b in _live_pairs(polygons, rng, 200):
        (axs, _), (bxs, _) = chain(a), chain(b)
        lo = max(axs[0], bxs[0])
        hi = min(axs[-1], bxs[-1])
        answers = set()
        for _ in range(10):
            xi = lo + Fraction(rng.randint(0, 999), 1000) * (hi - lo)
            answers.add(cmp_at(xi, a, b))
        assert len(answers) == 1


def test_slope_tiebreak_matches_below(small_corpus):
    # When two segments meet at a shared left endpoint, the smaller slope
    # belongs to the lower segment, which comes after the other one over
    # their whole common x-extent.
    segs = [s for p in small_corpus[3] for s in segments_of(p)]
    checked = 0
    for a in segs:
        axs, ays = chain(a)
        for b in segs:
            bxs, bys = chain(b)
            if a is b or (axs[0], ays[0]) != (bxs[0], bys[0]):
                continue
            (ea0, ea1), (eb0, eb1) = span_edges(a)[0], span_edges(b)[0]
            lhs = (ea1.y - ea0.y) * (eb1.x - eb0.x)
            rhs = (eb1.y - eb0.y) * (ea1.x - ea0.x)
            if lhs == rhs:
                continue
            want = Rel.AFTER if lhs < rhs else Rel.BEFORE
            # At the shared start the slope rule decides; at the midpoint
            # of the common x-extent the heights do.
            mid = Fraction(axs[0] + min(axs[-1], bxs[-1]), 2)
            assert cmp_at(axs[0], a, b) is want
            assert cmp_at(mid, a, b) is want
            checked += 1
    assert checked
