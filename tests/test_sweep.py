"""Event construction, sweep status, and the nesting forest itself."""

import json
import sys
from fractions import Fraction
from operator import eq

import pytest

import nestpoly.sweep
from nestpoly import (
    ContainmentCycle,
    NestingForest,
    OverlapDetected,
    SemanticError,
    brute_force_forest,
    make_polygon,
    nesting_forest,
    parse_instance,
    serialize_forest,
    serialize_instance,
    transform,
    validate,
)
from nestpoly.errors import CoincidentSegments, OutOfDomain
from nestpoly.geometry import Polygon
from nestpoly.segments import decompose
from nestpoly.sweep import (
    StatusEntry,
    SweepStatus,
    advance_current_edge,
    build_events,
)

from conftest import segments_of, square, top_bottom
from test_segments import WRAPPED_SCANS, WRAPPED_SPLITS, _load_workloads
from reference import (
    CheckedStatus,
    InternalOrderViolation,
    Rel,
    chain,
    check_thread,
    checked_forest,
    cmp_at,
    event_list,
    live_events_mid_sweep,
    parity,
    status_order,
)


def all_segments(polygons):
    return [s for p in polygons for s in segments_of(p)]


def test_build_events_single_square():
    p = square("S", 0, 0, 4)
    top, bottom = top_bottom(p)
    events = list(build_events([top, bottom]))
    assert [(e.kind, e.xi) for e in events] == [
        ("insert", 0),
        ("insert", 0),
        ("remove", 4),
        ("remove", 4),
    ]
    assert events[0].segment is top  # top first: y 4 > 0
    assert events[1].segment is bottom
    assert events[0].first and not events[1].first


def test_build_events_removal_before_insertion(shared_edge_squares):
    events = build_events(all_segments(shared_edge_squares))
    at2 = [e for e in events if e.xi == 2]
    kinds = [e.kind for e in at2]
    assert kinds == ["remove", "remove", "insert", "insert"]
    assert {e.segment.polygon_id for e in at2[:2]} == {"A"}
    assert {e.segment.polygon_id for e in at2[2:]} == {"B"}


def _shared_starts():
    # The fans and the quadtree have runs of inserts at one start point.
    return [_apex_fan(), _fan_in_a_cone(), _quadtree(seed=4, levels=5)]


def test_build_events_properties(small_corpus):
    for polygons in small_corpus[:8] + _shared_starts():
        segments = all_segments(polygons)
        events = list(build_events(segments))
        assert len(events) == 2 * len(segments)
        assert [e.xi for e in events] == sorted(e.xi for e in events)
        for prev, cur in zip(events, events[1:]):
            if prev.xi == cur.xi:
                # At one abscissa no remove may follow an insert, and the
                # inserts run top to bottom.
                assert not (prev.kind == "insert" and cur.kind == "remove")
                if prev.kind == cur.kind == "insert":
                    assert cmp_at(
                        cur.xi, prev.segment, cur.segment
                    ) is Rel.BEFORE
        firsts = [e.segment.polygon_id for e in events if e.first]
        assert sorted(firsts) == sorted(p.id for p in polygons)


def _fields(events):
    return [(e.kind, e.xi, e.segment, e.first) for e in events]


def test_build_events_matches_event_list(small_corpus):
    for polygons in small_corpus + _shared_starts():
        segments = all_segments(polygons)
        events = build_events(segments)
        expected = _fields(event_list(segments))
        assert _fields(events) == expected
        assert _fields(events) == expected  # a second pass reads the same
        assert len(events) == 2 * len(segments)
        # The sweep's plain tuples carry the same events, with inserting
        # True exactly for an insert.
        merged = [
            ("insert" if inserting else "remove", x, s)
            for s, x, inserting in events.merge()
        ]
        assert merged == [fields[:3] for fields in expected]


def test_sweep_holds_at_most_two_events():
    # The sweep reads plain tuples, so it makes no Event at all.
    rings = [square(f"r{i:03d}", i, i, 2 * (300 - i)) for i in range(300)]
    assert live_events_mid_sweep(rings) == 0


def test_status_predecessor_square_alone():
    top, bottom = top_bottom(square("S", 0, 0, 4))
    status = SweepStatus()
    e_top = status.insert(top, 0)
    e_bottom = status.insert(bottom, 0)
    assert status.predecessor(e_bottom) is e_top
    assert status.predecessor(e_top) is None


def test_status_predecessor_nested(nested_squares):
    o, i = nested_squares
    top_o, bot_o = top_bottom(o)
    top_i, bot_i = top_bottom(i)
    status = SweepStatus()
    status.insert(top_o, 0)
    status.insert(bot_o, 0)
    e_top_i = status.insert(top_i, 2)
    status.insert(bot_i, 2)
    assert status.predecessor(e_top_i).segment is top_o
    order = [e.segment for e in status_order(status)]
    assert order == [top_o, top_i, bot_i, bot_o]


def test_status_priorities_are_the_seeded_draws(small_corpus):
    import random

    for polygons in small_corpus[:10]:
        status = SweepStatus()
        prios = []
        for ev in build_events(all_segments(polygons)):
            if ev.kind == "insert":
                prios.append(status.insert(ev.segment, ev.xi).prio)
            else:
                status.remove(ev.segment)
        draw = random.Random(0).random
        assert prios == [draw() for _ in prios]


def test_status_insert_past_the_first_edge_advances_the_cursor():
    # The bottom chain of Z runs (0, 0) -> (4, 0) -> (4, 2) -> (6, 2); at
    # x = 5 its current edge is (4, 2) -> (6, 2), at height 2.
    z = make_polygon("Z", [(0, 0), (4, 0), (4, 2), (6, 2), (6, 6), (0, 6)])
    top, bottom = top_bottom(z)
    inner = square("I", 5, 3, 1)  # its bottom edge is at height 3
    status = SweepStatus()
    e_bottom = status.insert(bottom, 5)
    # The cursor's position along the chain: edges passed since the first.
    assert (
        abs(e_bottom.cursor - bottom.first), e_bottom.ax, e_bottom.ay,
        e_bottom.end,
    ) == (2, 4, 2, 6)
    e_top = status.insert(top, 5)
    assert abs(e_top.cursor - top.first) == 0
    i_top, i_bottom = top_bottom(inner)
    status.insert(i_top, 5)
    status.insert(i_bottom, 5)
    order = [e.segment for e in status_order(status)]
    assert order == [top, i_top, i_bottom, bottom]
    with pytest.raises(OutOfDomain):
        SweepStatus().insert(bottom, 7)


def test_status_insert_outside_the_segment_raises():
    # The bottom chain of S spans x = 2 .. 6: an insert on either side of it
    # raises rather than extrapolate an edge, and leaves the status empty.
    top, bottom = top_bottom(square("S", 2, 0, 4))
    status = SweepStatus()
    with pytest.raises(OutOfDomain, match="x=1 precedes the current edge"):
        status.insert(bottom, 1)
    with pytest.raises(OutOfDomain, match="x=7 beyond segment"):
        status.insert(bottom, 7)
    assert status.root is None
    assert status.insert(bottom, 6).ax == 2


def test_status_remove_keeps_order(nested_squares):
    o, i = nested_squares
    top_o, bot_o = top_bottom(o)
    top_i, bot_i = top_bottom(i)
    status = SweepStatus()
    for seg, xi in ((top_o, 0), (bot_o, 0), (top_i, 2), (bot_i, 2)):
        status.insert(seg, xi)
    status.remove(top_i)
    status.remove(bot_i)
    assert [e.segment for e in status_order(status)] == [top_o, bot_o]
    assert len(status._entries) == 2


def test_checked_status_catches_swapped_entries(nested_squares):
    o, i = nested_squares
    top_o, bot_o = top_bottom(o)
    top_i, _ = top_bottom(i)
    status = CheckedStatus()
    status.insert(top_o, 0)
    status.insert(bot_o, 0)
    upper, lower = status_order(status)
    # Swap what the two adjacent live entries hold, leaving the treap links.
    for slot in ("segment", "cursor", "ax", "ay", "dx", "dy", "end"):
        a, b = getattr(upper, slot), getattr(lower, slot)
        setattr(upper, slot, b)
        setattr(lower, slot, a)
    with pytest.raises(InternalOrderViolation, match="order broken at x=2 "):
        status.insert(top_i, 2)


def test_checked_forest_catches_first_segment_with_interior_above(
    monkeypatch, nested_squares
):
    assign = nestpoly.sweep.assign_parities

    def flipped(polygon, decomposition):
        assign(polygon, decomposition)
        # Segments over a copy of opposite orientation: every parity flips.
        copy = Polygon(
            polygon.id, polygon.xs, polygon.ys, -polygon.twice_area,
            polygon.denominator,
        )
        return decompose(copy)

    monkeypatch.setattr(nestpoly.sweep, "assign_parities", flipped)
    with pytest.raises(
        InternalOrderViolation,
        match="first segment of polygon 'O' has interior above it",
    ):
        checked_forest(nested_squares)
    # The swapped-in status and event check are gone again afterwards.
    assert nestpoly.sweep.SweepStatus is SweepStatus
    assert nestpoly.sweep.build_events is build_events


def test_advance_current_edge_staircase():
    p = make_polygon("Z", [(0, 0), (4, 0), (4, 2), (6, 2), (6, 6), (0, 6)])
    bottom = next(s for s in segments_of(p) if len(chain(s)[0]) == 4)
    entry = StatusEntry(bottom, 0.0)
    assert (entry.ax, entry.ay, entry.end) == (0, 0, 4)
    advance_current_edge(entry, 5)
    assert (entry.ax, entry.ay, entry.end) == (4, 2, 6)
    # Forward-only and idempotent: a smaller xi on the same edge is a no-op.
    advance_current_edge(entry, 5)
    assert (entry.ax, entry.ay, entry.end) == (4, 2, 6)
    with pytest.raises(OutOfDomain):
        advance_current_edge(entry, 7)
    # The cursor does not move back to an earlier edge.
    with pytest.raises(OutOfDomain, match="precedes the current edge"):
        advance_current_edge(entry, 0)


def test_advance_current_edge_postcondition(small_corpus):
    import random
    from fractions import Fraction

    rng = random.Random(13)
    for polygons in small_corpus[:5]:
        for p in polygons:
            for s in segments_of(p):
                entry = StatusEntry(s, 0.0)
                cxs, cys = chain(s)
                lo, hi = cxs[0], cxs[-1]
                xs = sorted(
                    lo + Fraction(rng.randint(0, 1000), 1000) * (hi - lo)
                    for _ in range(5)
                )
                for xi in xs:
                    advance_current_edge(entry, xi)
                    if xi == hi:
                        # The last edge, which is not vertical.
                        assert (entry.ax, entry.ay, entry.end) == (
                            cxs[-2], cys[-2], cxs[-1]
                        )
                    else:
                        assert entry.ax <= xi < entry.end


def test_cursor_walks_chains_that_pass_vertex_0():
    # Both steps, +1 and -1, along chains that pass vertex 0 and chains
    # that do not; the decagon's chains also pass over a vertical edge.
    shapes = set()
    for cycle, _ in (*WRAPPED_SPLITS.values(), *WRAPPED_SCANS.values()):
        for s in segments_of(make_polygon("P", cycle)):
            # (step is +1, passes vertex 0)
            shapes.add((s.last > s.first, min(s.first, s.last) < 0))
            xs, ys = chain(s)
            entry = StatusEntry(s, 0.0)
            for k in range(len(xs) - 1):
                if xs[k] == xs[k + 1]:
                    continue  # a vertical edge, which the cursor passes over
                want = (
                    xs[k], ys[k], xs[k + 1] - xs[k], ys[k + 1] - ys[k],
                    xs[k + 1],
                )
                for xi in (xs[k], Fraction(xs[k] + xs[k + 1], 2)):
                    advance_current_edge(entry, xi)
                    edge = (entry.ax, entry.ay, entry.dx, entry.dy, entry.end)
                    assert edge == want, (s, xi)
            # The right end keeps the last edge.
            advance_current_edge(entry, xs[-1])
            assert (entry.ax, entry.ay, entry.dx, entry.dy, entry.end) == want
            for fresh in (False, True):
                if fresh:
                    entry = StatusEntry(s, 0.0)
                with pytest.raises(
                    OutOfDomain, match=f"x={xs[-1] + 1} beyond segment of "
                    f"polygon 'P'"
                ):
                    advance_current_edge(entry, xs[-1] + 1)
                with pytest.raises(
                    OutOfDomain, match=f"x={xs[0] - 1} precedes the current "
                    f"edge of a segment of polygon 'P'"
                ):
                    advance_current_edge(entry, xs[0] - 1)
    both = (True, False)
    assert shapes == {(step_up, wraps) for step_up in both for wraps in both}


def test_forest_nested(nested_squares):
    forest = checked_forest(nested_squares)
    assert forest.parent == {"O": None, "I": "O"}
    assert forest.depths() == {"O": 0, "I": 1}


def test_forest_shared_edge_siblings(shared_edge_squares):
    forest = checked_forest(shared_edge_squares)
    assert forest.parent == {"A": None, "B": None}


def test_forest_vertex_touch(vertex_touch_pair):
    forest = checked_forest(vertex_touch_pair)
    assert forest.parent == {"O": None, "I": "O"}


def test_forest_bottom_edge_tiebreak(bottom_edge_pair):
    forest = checked_forest(bottom_edge_pair)
    assert forest.parent == {"O": None, "I": "O"}


def test_forest_crossing_is_rejected(crossing_pair):
    # The crossing pair violates the overlap-free precondition. The sweep
    # itself only compares at insertion abscissas and may not notice, but
    # the validator must flag the pair before it is ever swept.
    report = validate(crossing_pair)
    assert not report.ok
    assert any(v.kind == "interior_overlap" for v in report.violations)


def test_forest_three_levels():
    polygons = [square("A", 0, 0, 30), square("B", 5, 5, 18), square("C", 8, 8, 6)]
    forest = checked_forest(polygons)
    assert forest.parent == {"A": None, "B": "A", "C": "B"}


def test_forest_api():
    forest = NestingForest({"a": None, "b": "a", "c": "a", "d": None})
    assert forest.depths() == {"a": 0, "b": 1, "c": 1, "d": 0}


def test_forest_rejects_duplicate_ids():
    polygons = [square("A", 0, 0, 2), square("A", 5, 0, 2)]
    with pytest.raises(SemanticError, match="duplicate polygon id 'A'"):
        nesting_forest(polygons)


def test_depths_of_deep_chain_listed_children_first():
    ids = [f"c{i:05d}" for i in range(2000)]
    parent = {pid: par for pid, par in zip(ids[1:], ids)}
    parent = dict(reversed(list(parent.items())))
    parent[ids[0]] = None
    forest = NestingForest(parent)
    assert forest.depths() == {pid: i for i, pid in enumerate(ids)}
    rows = json.loads(serialize_forest(forest))["forest"]
    assert rows[-1] == {"id": "c01999", "parent": "c01998", "depth": 1999}
    with pytest.raises(ContainmentCycle):
        NestingForest({"a": "b", "b": "a"}).depths()


def test_decimal_overlap_witness_in_input_units():
    def cell(pid):
        corners = [("0.5", "0.5"), ("1.5", "0.5"), ("1.5", "1.25"),
                   ("0.5", "1.25")]
        return make_polygon(pid, corners)

    with pytest.raises(OverlapDetected, match=r"coincide at x=1/2$"):
        nesting_forest([cell("A"), cell("B")])


def test_polygons_over_different_denominators_in_one_call():
    # Built apart, over 1, 7 and 4, and brought over 28 by the sweep. A and
    # B share part of an edge, C touches A at a corner, D lies on B's bottom.
    t = Fraction(1, 7)
    polygons = [
        make_polygon("O", [(0, 0), (4, 0), (4, 4), (0, 4)]),
        make_polygon("A", [(t, t), (2, t), (2, 2), (t, 2)]),
        make_polygon("B", [(2, "0.25"), ("3.75", "0.25"), ("3.75", 2),
                           (2, 2)]),
        make_polygon("C", [(t, t), (1, 2 * t), (1, 1)]),
        make_polygon("D", [("2.25", "0.25"), (3, "0.25"), (3, 1)]),
    ]
    assert [p.denominator for p in polygons] == [1, 7, 4, 7, 4]
    assert validate(polygons).ok
    forest = nesting_forest(polygons)
    assert forest.parent == {"O": None, "A": "O", "B": "O", "C": "A",
                             "D": "B"}
    assert forest.parent == brute_force_forest(polygons).parent
    # Two unit squares of equal area, over 7 and over 4, tie completely
    # where the second one starts.
    p = make_polygon("P", [(t, 0), (1 + t, 0), (1 + t, 1), (t, 1)])
    q = make_polygon("Q", [("0.25", 0), ("1.25", 0), ("1.25", 1),
                           ("0.25", 1)])
    with pytest.raises(CoincidentSegments) as exc:
        nesting_forest([p, q])
    assert exc.value.x == Fraction(1, 4)
    assert str(exc.value) == (
        "segments of polygons 'Q' and 'P' coincide at x=1/4"
    )


def test_decimal_input_sweeps_on_ints(monkeypatch, small_corpus):
    received = []
    original = nestpoly.sweep.build_events

    def spy(segments):
        received.extend(segments)
        return original(segments)

    monkeypatch.setattr(nestpoly.sweep, "build_events", spy)
    polygons = transform(small_corpus[3], scale=Fraction(3, 1000))
    assert any(p.denominator > 1 for p in polygons)
    nesting_forest(polygons)
    assert received
    coords = [c for s in received for col in chain(s) for c in col]
    assert all(type(c) is int for c in coords)


DECIMAL_SCALES = [Fraction(1, 2), Fraction(1, 2**7), Fraction(1, 2**20),
                  Fraction(3, 1000)]


@pytest.mark.parametrize("scale", DECIMAL_SCALES, ids=str)
def test_decimal_instance_matches_integer_and_oracle(small_corpus, scale):
    for polygons in small_corpus[:12]:
        text = serialize_instance(transform(polygons, scale=scale))
        decimal = parse_instance(text)
        assert any(p.denominator > 1 for p in decimal)
        forest = nesting_forest(decimal)
        assert serialize_forest(forest) == serialize_forest(
            nesting_forest(polygons)
        )
        assert forest.parent == brute_force_forest(decimal).parent


def test_layers_accept_fraction_polygons(small_corpus):
    # Polygons that share a denominator go through the layers as they are.
    for polygons in small_corpus[:6]:
        thin = transform(polygons, scale=Fraction(1, 7))
        events = build_events(all_segments(thin))
        status = SweepStatus()
        parent = {}
        for ev in events:
            if ev.kind == "remove":
                status.remove(ev.segment)
                continue
            entry = status.insert(ev.segment, ev.xi)
            if ev.first:
                pred = status.predecessor(entry)
                pid = ev.segment.polygon_id
                if pred is None:
                    parent[pid] = None
                elif parity(pred.segment) == 1:
                    parent[pid] = pred.segment.polygon_id
                else:
                    parent[pid] = parent[pred.segment.polygon_id]
        assert parent == nesting_forest(polygons).parent


# Finger insertion: an insert at the abscissa of the previous one first tries
# the slot right after that entry.


def _check_treap(status):
    """Parent links, heap order on priorities, and the size all agree."""
    count = 0
    stack = [(status.root, None)]
    while stack:
        node, par = stack.pop()
        if node is None:
            continue
        count += 1
        assert node.par is par
        if par is not None:
            assert par.prio <= node.prio
        stack.extend(((node.left, node), (node.right, node)))
    assert count == len(status._entries)


def _apex_fan():
    # Three triangles whose leftmost vertex is the shared apex (0, 0); B and
    # C also share the edge from the apex to (8, 1).
    return [
        make_polygon("A", [(0, 0), (8, -6), (8, -2)]),
        make_polygon("B", [(0, 0), (8, 1), (8, 5)]),
        make_polygon("C", [(0, 0), (8, -1), (8, 1)]),
    ]


def _inserted_top_down(polygons):
    events = build_events(all_segments(polygons))
    return [ev.segment for ev in events if ev.kind == "insert"]


def test_status_any_insert_order_at_one_abscissa():
    import itertools

    top_down = _inserted_top_down(_apex_fan())
    assert [s.polygon_id for s in top_down] == ["B", "B", "C", "C", "A", "A"]
    for order in itertools.permutations(top_down):
        status = SweepStatus()
        for seg in order:
            status.insert(seg, 0)
            _check_treap(status)
        assert [e.segment for e in status_order(status)] == top_down


def test_status_bottom_before_top_with_a_third_polygon_between():
    top_down = _inserted_top_down(_apex_fan())
    b_top, b_bot, c_top, c_bot, a_top, a_bot = top_down
    # Bottom chains before top chains, and C interleaved with B.
    status = SweepStatus()
    for seg in (b_bot, c_bot, b_top, a_bot, c_top, a_top):
        status.insert(seg, 0)
    assert [e.segment for e in status_order(status)] == top_down
    assert status.predecessor(status_order(status)[2]).segment is b_bot
    # Removing the latest insert leaves no stale finger behind.
    status.remove(a_top)
    status.remove(a_bot)
    status.insert(a_top, 0)
    status.remove(a_top)
    entry = status.insert(a_bot, 0)
    assert status.predecessor(entry).segment is c_bot
    assert [e.segment for e in status_order(status)] == top_down[:4] + [a_bot]
    _check_treap(status)


def _quadtree(seed, levels):
    """Square cells, each split cell tiled exactly by its four quadrants."""
    import random

    rng = random.Random(seed)
    side = 2 ** levels
    cells = [(0, 0, side)]
    polygons = []
    while cells:
        x, y, s = cells.pop()
        polygons.append(square(f"q{x}_{y}_{s}", x, y, s))
        if s > 1 and (s == side or rng.random() < 0.4):
            h = s // 2
            cells.extend(
                (x + dx, y + dy, h) for dx in (0, h) for dy in (0, h)
            )
    return polygons


def _fan_in_a_cone():
    # The apex fan inside a cone with the same apex, and a second fan whose
    # triangles have the apex as their rightmost point, so removals and
    # inserts meet at (0, 0).
    return [
        square("O", -20, -20, 40),
        make_polygon("T", [(0, 0), (9, -9), (9, 9)]),
        *_apex_fan(),
        make_polygon("L1", [(0, 0), (-8, 3), (-8, 8)]),
        make_polygon("L2", [(0, 0), (-8, -3), (-8, 3)]),
    ]


@pytest.mark.parametrize(
    "polygons",
    [
        pytest.param(_apex_fan(), id="apex-fan"),
        pytest.param(_fan_in_a_cone(), id="fan-in-a-cone"),
        pytest.param(_quadtree(seed=4, levels=5), id="quadtree-69"),
        pytest.param(_quadtree(seed=7, levels=5), id="quadtree-121"),
    ],
)
def test_forest_where_local_minima_share_a_point(polygons):
    assert validate(polygons).ok
    forest = checked_forest(polygons)
    assert forest.parent == brute_force_forest(polygons).parent


# The root descent writes _after's height test out; these drive it where it
# must break a height tie or move a cursor, and check it against _after.


@pytest.mark.parametrize("name", ["convex-grid", "nested-notched",
                                  "quadtree-decimal"])
def test_checked_forest_on_small_workloads(name):
    make_small = _load_workloads()[name].make_small
    for seed in (1, 2, 3):
        inst = make_small(seed)
        assert checked_forest(parse_instance(inst.to_json())).parent == (
            inst.parent
        )


def test_checked_forest_on_the_corpus(small_corpus):
    for polygons in small_corpus:
        assert checked_forest(polygons).parent == (
            nesting_forest(polygons).parent
        )


@pytest.mark.parametrize(
    "apex, far",
    [
        pytest.param((2, 10), [(6, 4), (6, 8)], id="apex-on-top-edge"),
        pytest.param((2, 0), [(6, 4), (6, 2)], id="apex-on-bottom-edge"),
    ],
)
def test_descent_breaks_a_height_tie(monkeypatch, apex, far):
    # I's leftmost vertex lies on an edge of O, so I's top chain enters at
    # O's height there, at an abscissa no earlier insert used: the descent
    # from the root, not the finger, sends the two to tie_break.
    polygons = [square("O", 0, 0, 10), make_polygon("I", [apex, *far])]
    callers = []
    original = nestpoly.sweep.tie_break

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(nestpoly.sweep, "tie_break", spy)
    assert checked_forest(polygons).parent == {"O": None, "I": "O"}
    assert nesting_forest(polygons).parent == {"O": None, "I": "O"}
    assert "insert" in callers


def test_descent_advances_the_cursor_of_an_entry_it_passes(monkeypatch):
    # O's bottom chain steps down at x = 4: (0, 4) -> (4, 4) -> (4, 0) ->
    # (8, 0). I enters at x = 5, where the chain's first edge, extended,
    # runs at height 4, above I; its current edge there runs at height 0.
    o = make_polygon("O", [(0, 4), (4, 4), (4, 0), (8, 0), (8, 10), (0, 10)])
    i = square("I", 5, 1, 2)
    o_top, o_bottom = top_bottom(o)
    i_top, i_bottom = top_bottom(i)
    status = SweepStatus()
    status.insert(o_top, 0)
    e_bottom = status.insert(o_bottom, 0)
    assert abs(e_bottom.cursor - o_bottom.first) == 0
    # At a new abscissa the finger is not tried, so _after is never called.
    monkeypatch.setattr(nestpoly.sweep, "_after", None)
    status.insert(i_top, 5)
    assert (
        abs(e_bottom.cursor - o_bottom.first), e_bottom.ay, e_bottom.end
    ) == (2, 0, 8)
    monkeypatch.undo()
    status.insert(i_bottom, 5)
    order = [e.segment for e in status_order(status)]
    assert order == [o_top, i_top, i_bottom, o_bottom]
    assert checked_forest([o, i]).parent == {"O": None, "I": "O"}


def test_only_the_finger_calls_after(monkeypatch):
    # The descent compares inline: _after serves the finger alone, with at
    # most two calls for each insert at the previous insert's abscissa.
    inst = _load_workloads()["nested-notched"].make_small(1)
    polygons = parse_instance(inst.to_json())
    calls = 0
    original = nestpoly.sweep._after

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(nestpoly.sweep, "_after", counted)
    assert nesting_forest(polygons).parent == inst.parent
    inserts = build_events(all_segments(polygons)).inserts
    starts = [chain(s)[0][0] for s in inserts]
    repeats = sum(map(eq, starts[1:], starts))
    assert 0 < calls <= 2 * repeats


def test_treap_invariants_after_every_event(small_corpus):
    for polygons in small_corpus:
        status = SweepStatus()
        live = []  # top to bottom, each insert placed by a scan with cmp_at
        for ev in build_events(all_segments(polygons)):
            if ev.kind == "remove":
                status.remove(ev.segment)
                live.remove(ev.segment)
            else:
                status.insert(ev.segment, ev.xi)
                at = next(
                    (k for k, s in enumerate(live)
                     if cmp_at(ev.xi, ev.segment, s) is Rel.BEFORE),
                    len(live),
                )
                live.insert(at, ev.segment)
            _check_treap(status)
            check_thread(status)
            assert [e.segment for e in status_order(status)] == live


@pytest.mark.parametrize("name", ["convex-grid", "nested-notched",
                                  "quadtree-decimal"])
def test_thread_after_every_event_on_small_workloads(name):
    make_small = _load_workloads()[name].make_small
    for seed in (1, 2, 3):
        polygons = parse_instance(make_small(seed).to_json())
        status = SweepStatus()
        for ev in build_events(all_segments(polygons)):
            if ev.kind == "remove":
                status.remove(ev.segment)
            else:
                status.insert(ev.segment, ev.xi)
            check_thread(status)
