"""Acceptance criteria: one test per criterion, one PASS/FAIL line each.

The seeded corpus used by criteria 1 and 2 cycles the touching probability
through 0, 0.5 and 1 and stays within 40 polygons and 2000 vertices per
instance.
"""

import random
import statistics
import time
from fractions import Fraction

import pytest

from nestpoly import (
    GenConfig,
    brute_force_forest,
    generate,
    make_polygon,
    nesting_forest,
    serialize_forest,
    transform,
    validate,
)
from nestpoly.bench import disjoint_instance, time_sweep
from nestpoly.segments import assign_parities, decompose

from conftest import corpus_config, segments_of, square
from reference import (
    Rel,
    _crosses_reversal,
    _near_regular_ngon,
    _random_subpath,
    check_terminal_monotone,
    check_unique_cover,
    chain,
    checked_forest,
    cmp_at,
    count_N,
    satisfies_property_O,
    segment_edges,
    span_edges,
)

CORPUS_SEEDS = 1000


def _report(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def corpus():
    """(polygons, decompositions) for seeds 0..999, built once."""
    out = []
    for seed in range(CORPUS_SEEDS):
        polygons = generate(corpus_config(seed))
        assert len(polygons) <= 40
        assert sum(len(p.vertices) for p in polygons) <= 2000
        out.append(polygons)
    return out


def test_acceptance_1_oracle_equivalence(corpus):
    start = time.monotonic()
    mismatches = 0
    for polygons in corpus:
        if nesting_forest(polygons) != brute_force_forest(polygons):
            mismatches += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        mismatches == 0 and elapsed < 60,
        f"sweep vs brute force on {len(corpus)} seeded instances: "
        f"{mismatches} mismatches in {elapsed:.1f}s (budget 60s)",
    )


def test_acceptance_2_parity_soundness(corpus):
    rng = random.Random(20_26)
    segments = violations = 0
    for polygons in corpus[::4]:
        for p in polygons:
            deco = assign_parities(p, decompose(p))
            for s in deco.segments:
                xs, _ = chain(s)
                lo, hi = xs[0], xs[-1]
                parities = set()
                for _ in range(5):
                    xi = lo + Fraction(rng.randint(1, 4095), 4096) * (hi - lo)
                    parities.add(count_N(p, s, xi, deco) % 2)
                if len(parities) != 1 or parities.pop() != s.parity:
                    violations += 1
                segments += 1
    _report(
        2,
        violations == 0,
        f"{segments} segments, parity vs direct count at 5 abscissas each: "
        f"{violations} violations",
    )


def test_acceptance_3_monotonicity_checkers(corpus):
    rng = random.Random(3)
    flat = [p for polygons in corpus[:80] for p in polygons]
    disagreements = reversal_passes = 0
    for _ in range(10_000):
        path = _random_subpath(rng, rng.choice(flat))
        a = satisfies_property_O(path)
        b = check_terminal_monotone(path)
        c = check_unique_cover(path)
        if not (a == b == c):
            disagreements += 1
        if _crosses_reversal(path) and a:
            reversal_passes += 1
    decompose_failures = 0
    for p in flat[:400]:
        for s in decompose(p).segments:
            edges = segment_edges(s)
            if not (
                satisfies_property_O(edges)
                and check_terminal_monotone(edges)
                and check_unique_cover(edges)
            ):
                decompose_failures += 1
    _report(
        3,
        disagreements == 0 and reversal_passes == 0 and decompose_failures == 0,
        "10000 random subpaths: three x-monotonicity checkers agree "
        f"({disagreements} disagreements, {reversal_passes} reversal "
        f"subpaths accepted, {decompose_failures} decompose outputs rejected)",
    )


def test_acceptance_4_structural_invariants(corpus):
    bad = 0
    for polygons in corpus[:150]:
        for p in polygons:
            segs = decompose(p).segments
            if len(segs) % 2 != 0:
                bad += 1
                continue
            seen = set()
            for s in segs:
                for e in span_edges(s):
                    key = frozenset([e.a, e.b])
                    if key in seen:
                        bad += 1
                    seen.add(key)
            nonvert = {
                frozenset([e.a, e.b]) for e in p.edges if not e.is_vertical
            }
            if seen != nonvert:
                bad += 1
    rng = random.Random(4)
    ngon_bad = 0
    for n in range(3, 13):
        import math

        for _ in range(5):
            p = _near_regular_ngon(n, rng.uniform(0, 2 * math.pi))
            if len(decompose(p).segments) != 2:
                ngon_bad += 1
    _report(
        4,
        bad == 0 and ngon_bad == 0,
        f"even counts, edge-disjointness, exact cover ({bad} violations); "
        f"convex n-gons n=3..12 give 2 segments ({ngon_bad} violations)",
    )


def test_acceptance_5_order_laws(corpus):
    rng = random.Random(5)
    # Pairs and triples must come from one instance: the order is only
    # consistent across abscissas for mutually overlap-free polygons.
    instances = [
        [s for p in polygons for s in segments_of(p)]
        for polygons in corpus[:40]
        if len(polygons) >= 3
    ]

    def live_xi(group):
        lo = max(chain(s)[0][0] for s in group)
        hi = min(chain(s)[0][-1] for s in group)
        if lo >= hi:
            return None
        return lo + Fraction(rng.randint(0, 4095), 4096) * (hi - lo)

    trichotomy_bad = transitivity_bad = tried = 0
    while tried < 10_000:
        trio = rng.sample(rng.choice(instances), 3)
        xi = live_xi(trio)
        if xi is None:
            continue
        tried += 1
        rels = {}
        for i in range(3):
            for j in range(3):
                if i != j:
                    rels[i, j] = cmp_at(xi, trio[i], trio[j])
        for i in range(3):
            for j in range(i + 1, 3):
                if not (
                    (rels[i, j] is Rel.BEFORE and rels[j, i] is Rel.AFTER)
                    or (rels[i, j] is Rel.AFTER and rels[j, i] is Rel.BEFORE)
                ):
                    trichotomy_bad += 1
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if len({i, j, k}) == 3 and (
                        rels[i, j] is Rel.BEFORE
                        and rels[j, k] is Rel.BEFORE
                        and rels[i, k] is not Rel.BEFORE
                    ):
                        transitivity_bad += 1

    consistency_bad = tried = 0
    while tried < 10_000:
        a, b = rng.sample(rng.choice(instances), 2)
        (axs, _), (bxs, _) = chain(a), chain(b)
        lo = max(axs[0], bxs[0])
        hi = min(axs[-1], bxs[-1])
        if lo >= hi:
            continue
        tried += 1
        answers = set()
        for _ in range(10):
            xi = lo + Fraction(rng.randint(0, 4095), 4096) * (hi - lo)
            answers.add(cmp_at(xi, a, b))
        if len(answers) != 1:
            consistency_bad += 1
    _report(
        5,
        trichotomy_bad == 0 and transitivity_bad == 0 and consistency_bad == 0,
        "10000 random triples and pairs: trichotomy "
        f"({trichotomy_bad}), transitivity ({transitivity_bad}), "
        f"abscissa-consistency ({consistency_bad}) violations",
    )


def test_acceptance_6_metamorphic_stability():
    rng = random.Random(6)
    unstable = 0
    for seed in range(100):
        polygons = generate(corpus_config(seed))
        base = serialize_forest(nesting_forest(polygons))
        variants = [
            transform(polygons, scale=1, dx=10**9, dy=10**9),
            transform(polygons, scale=1, dx=-(10**9), dy=-(10**9)),
            transform(polygons, scale=10**6, dx=0, dy=0),
            transform(polygons, scale=Fraction(1, 7), dx=0, dy=0),
        ]
        shuffled = list(polygons)
        rng.shuffle(shuffled)
        variants.append(shuffled)
        for variant in variants:
            if serialize_forest(nesting_forest(variant)) != base:
                unstable += 1
    _report(
        6,
        unstable == 0,
        "100 seeds x (translation, scaling by 10^6 and 1/7, permutation): "
        f"{unstable} forest documents changed",
    )


@pytest.mark.slow
def test_acceptance_7_complexity_trend():
    start = time.monotonic()
    sizes = [2**k for k in range(10, 17)]
    instances = {m: disjoint_instance(m) for m in sizes}
    # Round-robin over the sizes, one run each per round: a slow spell of
    # the host then slows every size alike instead of one size's median.
    samples = {m: [] for m in sizes}
    for _ in range(5):
        for m in sizes:
            samples[m].extend(time_sweep(instances[m], repeat=1))
    medians = {m: statistics.median(samples[m]) for m in sizes}
    ratios = [medians[2 * m] / medians[m] for m in sizes[:-1]]
    top_two_ok = all(r <= 2.6 for r in ratios[-2:])

    polygons = disjoint_instance(4096)
    sweep_ns = statistics.median(time_sweep(polygons, repeat=3))
    t0 = time.perf_counter_ns()
    brute_force_forest(polygons)
    oracle_ns = time.perf_counter_ns() - t0
    speedup = oracle_ns / sweep_ns
    elapsed = time.monotonic() - start
    _report(
        7,
        top_two_ok and speedup >= 25 and elapsed < 300,
        "doubling m=2^10..2^16 on disjoint convex polygons: top ratios "
        f"{ratios[-2]:.2f}, {ratios[-1]:.2f} (<= 2.6); sweep {speedup:.0f}x "
        f"faster than brute force at m=4096 (>= 25x); wall {elapsed:.0f}s "
        "(budget 300s)",
    )


def test_acceptance_8_touching_fixtures():
    shared_edge = [square("A", 0, 0, 2), square("B", 2, 0, 2)]
    vertex_touch = [
        square("O", 0, 0, 10),
        make_polygon("I", [(0, 5), (5, 2), (5, 8)]),
    ]
    bottom_edge = [
        square("O", 0, 0, 4),
        make_polygon("I", [(0, 0), (4, 0), (2, 2)]),
    ]
    crossing = [
        make_polygon("P", [(0, 0), (8, 0), (8, 4), (0, 8)]),
        make_polygon("Q", [(0, -1), (8, -1), (8, 8), (0, 4)]),
    ]
    results = [
        checked_forest(shared_edge).parent == {"A": None, "B": None},
        checked_forest(vertex_touch).parent == {"O": None, "I": "O"},
        checked_forest(bottom_edge).parent == {"O": None, "I": "O"},
        not validate(crossing).ok,
    ]
    _report(
        8,
        all(results),
        "shared-edge siblings, vertex-touching nested pair, shared "
        f"bottom-edge tie-break, crossing pair rejected: {results}",
    )
