"""Event construction, sweep status, and the nesting forest itself."""

import json
import math
import sys
from fractions import Fraction
from functools import cmp_to_key
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
    nesting_forest_with_stats,
    parse_instance,
    serialize_forest,
    serialize_instance,
    transform,
    validate,
)
from nestpoly.bench import disjoint_instance
from nestpoly.errors import CoincidentSegments, OutOfDomain
from nestpoly.geometry import Polygon
from nestpoly.segments import MaxSegment, decompose
from nestpoly.sweep import (
    StatusEntry,
    SweepStats,
    SweepStatus,
    advance_current_edge,
    build_events,
)

from conftest import segments_of, square, top_bottom
from test_segments import DECAGON_STARTS, NOT_MONOTONE_STARTS, _load_workloads
from reference import (
    CheckedStatus,
    InternalOrderViolation,
    Rel,
    _forest_with,
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


def test_empty_input_gives_an_empty_forest_and_no_events():
    forest, stats = nesting_forest_with_stats([])
    assert forest.parent == {}
    assert stats == SweepStats(0, 0, 0, 0)
    events = build_events([])
    assert len(events) == 0
    assert list(events) == [] and list(events.merge()) == []


def _status_calls(polygons):
    """(events.merge() of one nesting_forest call, and the status calls its
    sweep made), each as (segment, x, inserting); a remove's x is its
    segment's right end."""
    merged, calls = [], []
    build = nestpoly.sweep.build_events

    def spy(segments):
        events = build(segments)
        merged.extend(events.merge())
        return events

    class RecordingStatus(SweepStatus):
        def insert(self, segment, xi):
            calls.append((segment, xi, True))
            return super().insert(segment, xi)

        def remove(self, segment):
            calls.append((segment, segment.polygon.xs[segment.last], False))
            super().remove(segment)

    forest = _forest_with(
        polygons, SweepStatus=RecordingStatus, build_events=spy
    )
    assert forest.parent == nesting_forest(polygons).parent
    return merged, calls


def test_sweep_walks_the_events_in_merge_order(small_corpus):
    # The sweep walks the two event lists itself; its calls to the status
    # must come in merge()'s order, each remove before every insert at or
    # right of its right end.
    workloads = _load_workloads()
    instances = small_corpus + _shared_starts() + [
        parse_instance(workloads[name].make_small(seed).to_json())
        for name in ("convex-grid", "nested-notched", "quadtree-decimal")
        for seed in (1, 2, 3)
    ]
    for polygons in instances:
        merged, calls = _status_calls(polygons)
        assert len(calls) == 2 * len(all_segments(polygons))
        assert [(id(s), x, ins) for s, x, ins in calls] == [
            (id(s), x, ins) for s, x, ins in merged
        ]


def _swept_segments(polygons):
    """The segments nesting_forest sweeps: every polygon over the least
    common multiple of their denominators."""
    scale = math.lcm(*(p.denominator for p in polygons))
    return all_segments([p.over(scale) for p in polygons])


def _starts_on_one_line():
    # Every segment starts on y = 0, so the insert key's w is 1: the apex
    # fan, a triangle with a smaller one on its apex, and a diamond.
    return [
        *_apex_fan(),
        make_polygon("P", [(10, 0), (20, -5), (20, 5)]),
        make_polygon("Q", [(10, 0), (15, -1), (15, 1)]),
        make_polygon("R", [(30, 0), (31, -1), (32, 0), (31, 1)]),
    ]


def test_insert_key_edge_cases_match_event_list(small_corpus):
    far = [
        transform(p, scale=10**12, dx=-(10**25), dy=-(10**25))
        for p in small_corpus
    ]
    thin = [transform(p, scale=Fraction(3, 1000)) for p in small_corpus]
    alone = [[p] for p in small_corpus[0]] + [[square("S", 0, 0, 4)]]
    line = _starts_on_one_line()
    assert validate(line).ok
    assert nesting_forest(line).parent == brute_force_forest(line).parent
    # The cases reach what they stress: coordinates past 64 bits, several
    # denominators, and one start y.
    assert all(abs(p.xs[0]) > 2**64 for p in far[0])
    assert any(len({p.denominator for p in ps}) > 1 for ps in thin)
    assert {s.polygon.ys[s.first] for s in _swept_segments(line)} == {0}
    for polygons in far + thin + alone + [line]:
        segments = _swept_segments(polygons)
        assert _fields(build_events(segments)) == _fields(
            event_list(segments)
        )


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
    # The leaving segments drop their handles; the others keep theirs.
    assert not hasattr(top_i, "entry") and not hasattr(bot_i, "entry")
    assert [top_o.entry, bot_o.entry] == status_order(status)
    _check_treap(status)


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
    for cycle, _ in (*DECAGON_STARTS.values(), *NOT_MONOTONE_STARTS.values()):
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


# Finger insertion: every insert into a non-empty status first walks the
# thread from the finger, the last insert or the neighbour that took its
# place on removal.


def _check_treap(status):
    """Parent links, heap order on priorities, the live count, the finger,
    the segments' entry handles and the up/down thread all agree."""
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
    # The finger is a live entry, and None only when the status is empty:
    # the thread, walked both ways from it, holds every entry of the treap,
    # and each is its segment's handle.
    finger = status._finger
    assert (finger is None) == (count == 0)
    live = []
    if finger is not None:
        top = finger
        while top.up is not None:
            top = top.up
        while top is not None:
            live.append(top)
            top = top.down
    assert len(live) == count == status._live
    assert all(entry.segment.entry is entry for entry in live)
    check_thread(status)


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


def _finger_above():
    """A square above square("O", 0, 0, 10), live over x = 2 .. 6.

    Its chains enter at x = 2, top to bottom, which leaves the finger on its
    bottom chain, of another polygon than any that enters inside O next. O's
    top chain lies between that finger and every slot inside O, so a walk
    from it passes O's top chain and gives up after 2 height tests, and the
    insert descends from the root.
    """
    return square("A", 2, 12, 4)


@pytest.mark.parametrize(
    "apex, far",
    [
        pytest.param((4, 10), [(8, 4), (8, 8)], id="apex-on-top-edge"),
        pytest.param((4, 0), [(8, 4), (8, 2)], id="apex-on-bottom-edge"),
    ],
)
def test_descent_breaks_a_height_tie(monkeypatch, apex, far):
    # I's leftmost vertex lies on an edge of O, so I's top chain enters at
    # O's height there, tried from A's finger, from which the walk gives up:
    # the descent from the root, not the finger, sends the two to tie_break.
    polygons = [
        square("O", 0, 0, 10), _finger_above(),
        make_polygon("I", [apex, *far]),
    ]
    assert validate(polygons).ok
    callers = []
    original = nestpoly.sweep.tie_break

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(nestpoly.sweep, "tie_break", spy)
    walks = _record_walks(monkeypatch)
    expected = {"O": None, "A": None, "I": "O"}
    assert checked_forest(polygons).parent == expected
    assert nesting_forest(polygons).parent == expected
    assert "insert" in callers
    # I's top chain, the last insert but one: the walk gave up after testing
    # A's bottom chain and O's top chain, and the descent placed the entry
    # with O's top chain between it and the finger.
    assert walks[-2] == [False, 2, 1, 1]


def test_descent_advances_the_cursor_of_an_entry_it_passes(monkeypatch):
    # O's bottom chain steps down at x = 4: (0, 0) -> (4, 0) -> (4, -4) ->
    # (8, -4). I enters at x = 5, where the chain's first edge, extended,
    # runs at height 0, above I; its current edge there runs at height -4.
    o = make_polygon(
        "O", [(0, 0), (4, 0), (4, -4), (8, -4), (8, 10), (0, 10)]
    )
    a = _finger_above()
    i = square("I", 5, -3, 2)
    polygons = [o, a, i]
    events = list(build_events(all_segments(polygons)))
    o_top, o_bottom = (ev.segment for ev in events[:2])
    a_top, a_bottom = (ev.segment for ev in events[2:4])
    k = next(k for k, ev in enumerate(events) if ev.segment.polygon_id == "I")
    i_top, i_bottom = (ev.segment for ev in events[k:k + 2])
    status = SweepStatus()
    for ev in events[:k]:
        if ev.kind == "insert":
            status.insert(ev.segment, ev.xi)
        else:
            status.remove(ev.segment)
    e_bottom = o_bottom.entry
    assert abs(e_bottom.cursor - o_bottom.first) == 0
    # The walk from A's bottom chain gives up after passing O's top chain,
    # before it reaches O's bottom chain, so the descent moves the cursor.
    hits = _spy_on_the_finger(monkeypatch)
    status.insert(i_top, 5)
    assert hits == [False]
    assert (
        abs(e_bottom.cursor - o_bottom.first), e_bottom.ay, e_bottom.end
    ) == (2, -4, 8)
    monkeypatch.undo()
    status.insert(i_bottom, 5)
    order = [e.segment for e in status_order(status)]
    assert order == [a_top, a_bottom, o_top, i_top, i_bottom, o_bottom]
    assert checked_forest(polygons).parent == {
        "O": None, "A": None, "I": "O"
    }


def _spy_on_the_finger(monkeypatch):
    """Record whether each try of the finger placed its entry."""
    hits = []
    link = SweepStatus._link_at_finger

    def spy(self, *args):
        hits.append(link(self, *args))
        return hits[-1]

    monkeypatch.setattr(SweepStatus, "_link_at_finger", spy)
    return hits


def _count_height_tests(monkeypatch):
    """Count the status's height tests: each reads the entry's end once.

    Entries are made as a subclass whose end is a counting property over
    StatusEntry's slot. Returns the one-element list that holds the count.
    """
    count = [0]
    slot = StatusEntry.end

    class Counted(StatusEntry):
        __slots__ = ()

        @property
        def end(self):
            count[0] += 1
            return slot.__get__(self)

        @end.setter
        def end(self, value):
            slot.__set__(self, value)

    monkeypatch.setattr(nestpoly.sweep, "StatusEntry", Counted)
    return count


def _record_walks(monkeypatch):
    """Record each try of the finger as (placed, tests, bound, passed).

    bound is the number of entries the walk may pass: the live count's bit
    length from a finger of the inserted segment's own polygon, 1 from any
    other. passed is the number of entries between the finger and the new
    entry once the insert has placed it, by the walk or by the descent.
    """
    tests = _count_height_tests(monkeypatch)
    walks = []
    insert = SweepStatus.insert
    link = SweepStatus._link_at_finger

    def spy_link(self, entry, *args):
        before = tests[0]
        placed = link(self, entry, *args)
        walks.append([placed, tests[0] - before])
        return placed

    def spy_insert(self, segment, xi):
        finger, live, tries = self._finger, self._live, len(walks)
        entry = insert(self, segment, xi)
        if len(walks) > tries:
            own = finger.segment.polygon is segment.polygon
            passed = _passed(finger, entry, "down")
            if passed is None:
                passed = _passed(finger, entry, "up")
            walks[-1] += [live.bit_length() if own else 1, passed]
        return entry

    monkeypatch.setattr(SweepStatus, "_link_at_finger", spy_link)
    monkeypatch.setattr(SweepStatus, "insert", spy_insert)
    return walks


def _passed(finger, entry, way):
    """Entries strictly between finger and entry, going way from finger;
    None when entry does not lie that way."""
    passed, cur = 0, getattr(finger, way)
    while cur is not None and cur is not entry:
        passed += 1
        cur = getattr(cur, way)
    return passed if cur is entry else None


@pytest.mark.parametrize("name", ["convex-grid", "nested-notched",
                                  "quadtree-decimal"])
def test_walk_passes_at_most_its_bound(monkeypatch, name):
    # A try tests the finger, then one entry per entry it passes, then the
    # entry that ends the walk unless the thread ends first. A try that
    # places its entry passed fewer entries than its bound, and one that
    # gives up passed exactly its bound: the descent then finds the slot at
    # least that far away.
    inst = _load_workloads()[name].make_small(1)
    polygons = parse_instance(inst.to_json())
    walks = _record_walks(monkeypatch)
    assert nesting_forest(polygons).parent == inst.parent
    assert any(placed for placed, *_ in walks)
    assert any(not placed for placed, *_ in walks)
    for placed, tests, bound, passed in walks:
        assert tests <= bound + 1
        if placed:
            assert passed < bound
            assert tests - passed in (1, 2)
        else:
            assert passed >= bound
            assert tests == bound + 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_finger_places_most_inserts_on_nested_notched(monkeypatch, seed):
    # Root descents are the inserts the finger does not place: 3, 2 and 3
    # of 96 on seeds 1-3, the inserts into an empty status included. With
    # the finger tried at a new abscissa only after a near insert there
    # they were 3, 3 and 5, with a try that tested the finger's neighbour
    # only 10, 8 and 13, and with the finger tried only at the previous
    # insert's abscissa 39, 37 and 37.
    inst = _load_workloads()["nested-notched"].make_small(seed)
    polygons = parse_instance(inst.to_json())
    hits = _spy_on_the_finger(monkeypatch)
    # CheckedStatus, a SweepStatus, also checks every slot the finger finds.
    assert checked_forest(polygons).parent == inst.parent
    inserts = len(all_segments(polygons))
    assert inserts - sum(hits) <= inserts // 32


def test_finger_passes_to_a_neighbour_on_removal(monkeypatch):
    hits = _spy_on_the_finger(monkeypatch)

    def run(status, steps):
        entries = {}
        for seg, xi in steps:
            if xi is None:
                status.remove(seg)
            else:
                entries[seg] = status.insert(seg, xi)
            _check_treap(status)
        return entries

    # The finger, P's bottom chain, leaves with no insert after it: it
    # passes up to P's top chain, then up to O's top chain, next to which
    # Q enters at x = 4, a new abscissa.
    o_top, o_bot = top_bottom(square("O", 0, 0, 10))
    p_top, p_bot = top_bottom(square("P", 2, 2, 2))
    q_top, q_bot = top_bottom(square("Q", 4, 5, 2))
    status = SweepStatus()
    e = run(status, [(o_top, 0), (o_bot, 0), (p_top, 2), (p_bot, 2),
                     (p_bot, None)])
    assert status._finger is e[p_top]
    run(status, [(p_top, None)])
    assert status._finger is e[o_top]
    del hits[:]
    e = run(status, [(q_top, 4), (q_bot, 4)])
    assert hits == [True, True]
    assert e[q_top].up is o_top.entry
    assert [x.segment for x in status_order(status)] == [
        o_top, q_top, q_bot, o_bot
    ]

    # The finger, B's top chain, is the top entry: it passes down to B's
    # bottom chain, then down to A's top chain, above which C enters.
    a_top, a_bot = top_bottom(square("A", 0, 0, 10))
    b_top, b_bot = top_bottom(square("B", 0, 20, 2))
    c_top, c_bot = top_bottom(square("C", 2, 12, 2))
    status = SweepStatus()
    e = run(status, [(a_top, 0), (a_bot, 0), (b_bot, 0), (b_top, 0),
                     (b_top, None)])
    assert status._finger is e[b_bot]
    run(status, [(b_bot, None)])
    assert status._finger is e[a_top]
    del hits[:]
    e = run(status, [(c_top, 2), (c_bot, 2)])
    assert hits == [True, True]
    assert e[c_bot].down is a_top.entry
    assert [x.segment for x in status_order(status)] == [
        c_top, c_bot, a_top, a_bot
    ]


def _bars(n, y0):
    """n rectangles over x = 0 .. 100, stacked from y0 up, one unit apart."""
    return [
        make_polygon(f"F{i}", [(0, y), (100, y), (100, y + 1), (0, y + 1)])
        for i, y in enumerate(range(y0, y0 + 2 * n, 2))
    ]


@pytest.mark.parametrize("way", ["down", "up"])
def test_walk_reaches_every_slot_within_its_bound(monkeypatch, way):
    # P holds a stack of 8 nested squares. At x = 50 the finger is one of
    # P's chains with k of the squares' chains live between it and P's
    # other chain, and bars above P fill the status up to 31 live entries,
    # 5 bits. Inserting P's other chain walks to its slot for k < 5 and
    # falls back to the descent from k = 5 on, in either direction.
    p_top, p_bot = top_bottom(square("P", 0, 0, 100))
    stack = [top_bottom(square(f"Q{j}", j, j, 100 - 2 * j)) for j in range(1, 9)]
    between = [t for t, _ in stack] + [b for _, b in stack[::-1]]
    bars = [s for bar in _bars(15, 102)[::-1] for s in top_bottom(bar)]
    finger, other = (p_top, p_bot) if way == "down" else (p_bot, p_top)
    walks = _record_walks(monkeypatch)
    for k in range(len(between) + 1):
        fill = bars[len(bars) - 30 + k:]
        status = SweepStatus()
        for seg in fill + between[:k] + [finger]:
            status.insert(seg, 50)
        assert status._finger is finger.entry and status._live == 31
        status.insert(other, 50)
        _check_treap(status)
        assert status_order(status) == [
            s.entry for s in fill + [p_top] + between[:k] + [p_bot]
        ]
        # The walk tests the finger and each entry it passes; going up, the
        # bars end a walk that places its entry with one more test.
        placed = k < 5
        tests = 1 + k + (way == "up") if placed else 6
        assert walks[-1] == [placed, tests, 5, k]

    # From a finger of another polygon the walk passes no entry: with one
    # square's top chain between Q1's and P's bottom chain, it gives up.
    status = SweepStatus()
    for seg in (p_top, stack[1][0], stack[0][0]):
        status.insert(seg, 50)
    status.insert(p_bot, 50)
    assert walks[-1] == [False, 2, 1, 1]
    _check_treap(status)


def test_a_segment_finds_its_entry_by_its_handle(nested_squares):
    o, _ = nested_squares
    top, bottom = top_bottom(o)
    first = SweepStatus()
    old = first.insert(top, 0)
    assert top.entry is old
    first.insert(bottom, 0)
    first.remove(bottom)
    assert not hasattr(bottom, "entry")
    # A status dropped with top still live in it leaves top's handle behind;
    # a fresh status gives top a new one when top enters it.
    del first
    second = SweepStatus()
    new = second.insert(top, 0)
    assert top.entry is new and new is not old
    second.insert(bottom, 0)
    _check_treap(second)
    second.remove(top)
    assert not hasattr(top, "entry")
    assert status_order(second) == [bottom.entry]
    _check_treap(second)


def _full_size_counts(monkeypatch, name):
    """(inserts, root descents, height tests) of seed 1 of a workload at
    full size; root descents include the inserts into an empty status."""
    inst = _load_workloads()[name].make(1)
    polygons = parse_instance(inst.to_json())
    tests = _count_height_tests(monkeypatch)
    hits = _spy_on_the_finger(monkeypatch)
    forest, stats = nesting_forest_with_stats(polygons)
    assert forest.parent == inst.parent
    return stats.N, stats.N - sum(hits), tests[0]


def test_walk_counts_on_nested_notched_at_full_size(monkeypatch):
    # Exact on seed 1, since the treap's priorities are seeded: 2 of 16,000
    # inserts descend from the root, one into the empty status and one
    # whose walk gave up, and the walks and descents make 34,601 height
    # tests. With the finger tried at a new abscissa only after a near
    # insert there, 414 descended and they made 39,458; with a try that
    # tested the finger's neighbour only, 2,052 and 59,940.
    assert _full_size_counts(monkeypatch, "nested-notched") == (
        16000, 2, 34601
    )


@pytest.mark.parametrize("name, counts", [
    pytest.param("convex-grid", (6400, 3051, 35274), id="convex-grid"),
    pytest.param("quadtree-decimal", (2408, 228, 6208), id="quadtree-decimal"),
])
def test_walk_counts_on_the_other_workloads_at_full_size(
    monkeypatch, name, counts
):
    # Exact on seed 1. Every insert tries the finger, so convex-grid, whose
    # polygons enter far from each other, pays 2 height tests for each of
    # its 3,011 walks that give up before a descent: with the finger tried
    # at a new abscissa only after a near insert there, it read 3,112
    # descents and 30,803 tests, and quadtree-decimal 269 and 6,290.
    assert _full_size_counts(monkeypatch, name) == counts


def _count_cursor_steps(monkeypatch):
    """Count the edges the status's cursors step over, in the one-element
    list returned."""
    steps = [0]
    advance = nestpoly.sweep.advance_current_edge

    def counted(entry, xi):
        cursor = entry.cursor
        advance(entry, xi)
        steps[0] += abs(entry.cursor - cursor)
        return entry

    monkeypatch.setattr(nestpoly.sweep, "advance_current_edge", counted)
    return steps


@pytest.mark.parametrize("k", [10, 12])
def test_height_tests_within_n_log_n_on_disjoint_polygons(monkeypatch, k):
    # The sweep's O(n + N log N) on counts, which do not depend on the
    # host's speed: 2^k disjoint convex polygons make 0.376 (k = 10) and
    # 0.370 (k = 12) height tests per N log2 N, and 0.362 at k = 14.
    polygons = disjoint_instance(2 ** k)
    tests = _count_height_tests(monkeypatch)
    steps = _count_cursor_steps(monkeypatch)
    _, stats = nesting_forest_with_stats(polygons)
    assert stats.N == 2 ** (k + 1)
    assert tests[0] <= 0.5 * stats.N * math.log2(stats.N)
    assert steps[0] <= stats.n


def _staggered_gons(k):
    """64 disjoint convex 2^k-gons, each through (0, 0) and (4096, 0)
    before it is moved: 2^(k - 1) + 1 vertices on y = x * (4096 - x) and
    the rest on its mirror. Each starts 512 right of the last, and any two
    that overlap in x lie apart in y."""
    w = 4096
    step = w >> (k - 1)
    top = [(x, x * (w - x)) for x in range(0, w + 1, step)]
    bottom = [(x, -y) for x, y in top[-2:0:-1]]
    return [
        make_polygon(
            f"P{p}",
            [(x + p * w // 8, y + p % 8 * w * w) for x, y in top + bottom],
        )
        for p in range(64)
    ]


def test_height_tests_do_not_grow_with_vertices(monkeypatch):
    # N = 128 segments at every k, while n = 64 * 2^k grows to 65,536: the
    # polygons enter and leave at the same abscissas in the same order, so
    # the status makes the same height tests (506), and its cursors step
    # over at most n edges.
    tests = _count_height_tests(monkeypatch)
    steps = _count_cursor_steps(monkeypatch)
    counts = set()
    for k in range(4, 11):
        tests[0] = steps[0] = 0
        forest, stats = nesting_forest_with_stats(_staggered_gons(k))
        assert set(forest.parent.values()) == {None}
        assert (stats.n, stats.N) == (64 * 2 ** k, 128)
        assert steps[0] <= stats.n
        counts.add(tests[0])
    assert len(counts) == 1 and counts.pop() > 0


def test_side_is_read_once_per_entry_and_tie_outside_the_sweep(monkeypatch):
    # Live entries keep their segment's side, read once as each is made, so
    # MaxSegment.side is read otherwise only where build_events orders
    # segments that share a start point: at most twice per comparison
    # there, and never in the status's ties or the parent rule.
    inst = _load_workloads()["quadtree-decimal"].make_small(1)
    polygons = parse_instance(inst.to_json())
    reads = shared = 0
    side = MaxSegment.side

    def counted_side(segment):
        nonlocal reads
        reads += 1
        return side.fget(segment)

    original = nestpoly.sweep._cmp_shared_start

    def counted_cmp(a, b):
        nonlocal shared
        shared += 1
        return original(a, b)

    monkeypatch.setattr(MaxSegment, "side", property(counted_side))
    monkeypatch.setattr(nestpoly.sweep, "_cmp_shared_start", counted_cmp)
    monkeypatch.setattr(nestpoly.sweep, "_start_key", cmp_to_key(counted_cmp))
    assert nesting_forest(polygons).parent == inst.parent
    assert shared > 0
    assert reads <= len(all_segments(polygons)) + 2 * shared


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
            entries = status_order(status)
            assert [e.segment for e in entries] == live
            assert [e.side for e in entries] == [s.side for s in live]


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
