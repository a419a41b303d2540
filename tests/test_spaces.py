import math
import random
from dataclasses import replace
from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invorbit as iv
from invorbit.numerics import differs, exceeds
from invorbit.oracle import _symmetric_matrices
from invorbit.spaces import _AXIOM_IDS, _pool_and_anchors


# ---------------------------------------------------------------------------
# Carriers and space construction
# ---------------------------------------------------------------------------


def test_finite_carrier_rejects_duplicates():
    with pytest.raises(ValueError):
        iv.FiniteCarrier((0, 1, 0))


def test_interval_carrier_needs_ordered_bounds():
    with pytest.raises(ValueError):
        iv.IntervalCarrier(1.0, 1.0)


def test_k_const_below_one_rejected():
    with pytest.raises(ValueError):
        iv.Space(iv.FiniteCarrier((0,)), lambda x, y: 0.0, k_const=0.5)


def test_table_space_requires_symmetry():
    with pytest.raises(ValueError):
        iv.table_space(["a", "b"], [[0, 1], [2, 0]])


def test_interval_point_equality_is_tolerant():
    s = iv.sqrt_square_space()
    assert s.points_equal(1.0, 1.0 + 1e-13)
    assert not s.points_equal(1.0, 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# d_sharp
# ---------------------------------------------------------------------------


def test_d_sharp_direct_value(sqrt_square):
    # |2*D(1,4) - D(1,1) - D(4,4)| with D(1,4) = 9, D(1,1) = 4, D(4,4) = 16
    assert abs(2 * 9 - 4 - 16) == 2
    assert iv.d_sharp(sqrt_square, 1.0, 4.0) == pytest.approx(2.0, abs=1e-12)


def test_d_sharp_vanishes_at_origin(sqrt_square):
    assert iv.d_sharp(sqrt_square, 0.0, 0.0) == 0.0


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_d_sharp_symmetric_and_zero_on_diagonal(x, y):
    s = iv.sqrt_square_space()
    assert iv.d_sharp(s, x, y) == iv.d_sharp(s, y, x)
    assert iv.d_sharp(s, x, x) == 0.0


def test_d_sharp_doubles_dist_on_b_metrics():
    # Self-distances vanish for a genuine metric, so d_sharp is 2*dist.
    s = replace(iv.abs_metric_space(), carrier=iv.FiniteCarrier((0.0, 0.5, 2.0, 7.0)))
    assert iv.check_axioms(s, iv.Exhaustive()).passed
    for x in s.carrier.points:
        for y in s.carrier.points:
            assert iv.d_sharp(s, x, y) == 2.0 * s.dist(x, y)


# ---------------------------------------------------------------------------
# check_axioms
# ---------------------------------------------------------------------------


def test_sqrt_square_passes_with_k2(sqrt_square):
    report = iv.check_axioms(sqrt_square, iv.Sampled(100_000, seed=1))
    assert report.passed
    assert report.checked_triples == 100_000


def test_sqrt_square_fails_with_k1():
    # Independent arithmetic: D(1,1) = 4 while D(1,0) + D(0,1) = 1 + 1 = 2.
    d = lambda x, y: (math.sqrt(x) + math.sqrt(y)) ** 2
    assert d(1, 1) == 4.0 and d(1, 0) + d(0, 1) == 2.0
    s = iv.sqrt_square_space(k_const=1.0)
    report = iv.check_axioms(s, iv.Sampled(1000, seed=1))
    assert not report.passed
    witnesses = {
        v.witness: (v.lhs, v.rhs) for v in report.violations if v.axiom_id == "D3"
    }
    assert witnesses[(1.0, 1.0, 0.0)] == (4.0, 2.0)


def test_axiom_violations_reevaluate_under_dist():
    s = iv.sqrt_square_space(k_const=1.0)
    report = iv.check_axioms(s, iv.Sampled(2000, seed=1))
    assert not report.passed
    for v in report.violations[:50]:
        assert v.axiom_id == "D3"
        x, y, z = v.witness
        assert v.lhs == s.dist(x, y)
        assert v.rhs == s.k_const * (s.dist(x, z) + s.dist(z, y))


def test_two_point_sigma_exhaustive_passes(two_point):
    # Independent oracle: run all 8 ordered triples through the axioms.
    sigma = lambda x, y: 2.0 if x == y == 0 else 1.0
    for x, y, z in product((0, 1), repeat=3):
        assert sigma(x, y) > 0  # zero-implies-equal is vacuous
        assert sigma(x, y) == sigma(y, x)
        assert sigma(x, z) <= sigma(x, y) + sigma(y, z)
    report = iv.check_axioms(two_point, iv.Exhaustive())
    assert report.passed
    assert report.checked_triples == 8


def test_exhaustive_requires_finite_carrier(sqrt_square):
    with pytest.raises(iv.ExhaustiveOnInfiniteCarrier):
        iv.check_axioms(sqrt_square, iv.Exhaustive())


def test_check_axioms_is_deterministic(sqrt_square):
    a = iv.check_axioms(sqrt_square, iv.Sampled(5000, seed=42))
    b = iv.check_axioms(sqrt_square, iv.Sampled(5000, seed=42))
    assert a == b


def test_b_metric_rejects_positive_self_distance():
    s = iv.table_space((0, 1), [[1, 2], [2, 0]], kind=iv.SpaceKind.B_METRIC)
    report = iv.check_axioms(s, iv.Exhaustive())
    assert any(v.axiom_id == "D1" and v.witness == (0, 0) for v in report.violations)


def test_zero_distance_between_distinct_labels_breaks_d1():
    s = iv.table_space((0, 1), [[0, 0], [0, 0]])
    report = iv.check_axioms(s, iv.Exhaustive())
    assert any(v.axiom_id == "D1" for v in report.violations)


@pytest.mark.parametrize("tiny", [1e-310, 1e-300])
def test_triangle_violation_with_overflowing_ratio_is_caught(tiny):
    # d(0,1) / (d(0,2) + d(2,1)) overflows to inf; the triple still breaks D3.
    big = 1.0 if tiny < 1e-300 else 1e10
    s = iv.table_space(
        (0, 1, 2), [[0, big, tiny], [big, 0, tiny], [tiny, tiny, 0]], k_const=2.0
    )
    report = iv.check_axioms(s, iv.Exhaustive())
    assert any(
        v.axiom_id == "D3" and v.witness == (0, 1, 2) for v in report.violations
    )
    assert iv.min_valid_k(s) == math.inf


def test_max_table_is_a_partial_metric():
    values = (1.0, 2.0, 3.0)
    matrix = [[max(a, b) for b in values] for a in values]
    s = iv.table_space(values, matrix, kind=iv.SpaceKind.PARTIAL_METRIC)
    assert iv.check_axioms(s, iv.Exhaustive()).passed


def test_partial_metric_implies_metric_like():
    # Hierarchy: anything passing P1-P4 passes the metric-like axioms too.
    values = (1.0, 2.0, 3.0)
    matrix = [[max(a, b) for b in values] for a in values]
    partial = iv.table_space(values, matrix, kind=iv.SpaceKind.PARTIAL_METRIC)
    assert iv.check_axioms(partial, iv.Exhaustive()).passed
    relaxed = iv.table_space(values, matrix, kind=iv.SpaceKind.METRIC_LIKE)
    assert iv.check_axioms(relaxed, iv.Exhaustive()).passed


def test_two_point_sigma_is_not_a_partial_metric(two_point):
    # sigma(0,0) = 2 > sigma(0,1) = 1 breaks the small-self-distance axiom.
    s = iv.Space(two_point.carrier, two_point.dist, 1.0, iv.SpaceKind.PARTIAL_METRIC)
    report = iv.check_axioms(s, iv.Exhaustive())
    assert any(v.axiom_id == "P2" for v in report.violations)


# ---------------------------------------------------------------------------
# Admission for every K at once
# ---------------------------------------------------------------------------

ADMISSION_KS = (1.0, 1.3, 1.5, 2.0, 3.0)


def _per_k_admitted(space, k_values):
    return [
        k
        for k in k_values
        if iv.check_axioms(replace(space, k_const=k), iv.Exhaustive()).passed
    ]


# At scale 1 the entries are ints; at 5e-324, one subnormal step, the
# ratio test decides K = 1.3 (see the next test).
@pytest.mark.parametrize("scale", [1, 1e-13, 1e13, 1e-310, 1e300, 5e-324])
def test_admission_matches_per_k_check_axioms(scale):
    entries = tuple(scale * e for e in (0, 1, 2, 3))
    admitted = 0
    for n in (1, 2, 3):
        labels = tuple(range(n))
        for matrix in _symmetric_matrices(n, entries):
            space = iv.table_space(labels, matrix)
            got = iv.admitted_k_values(space, ADMISSION_KS)
            assert got == _per_k_admitted(space, ADMISSION_KS), matrix
            admitted += len(got)
    assert admitted > 0


def test_only_the_ratio_test_rejects_a_subnormal_triangle():
    # 1.3 * 2u rounds onto 3u, so the product test passes K = 1.3, while
    # the ratio 3u / 2u = 1.5 exceeds it.
    u = 5e-324
    space = iv.table_space((0, 1, 2), [[0, 3 * u, u], [3 * u, 0, u], [u, u, 0]])
    assert 1.3 * (2 * u) == 3 * u and not exceeds(3 * u, 1.3 * (2 * u))
    assert iv.admitted_k_values(space, ADMISSION_KS) == [1.5, 2.0, 3.0]


@pytest.mark.parametrize("kind", list(iv.SpaceKind))
def test_admission_matches_per_k_check_axioms_on_edge_values(kind, edge_values):
    rng = random.Random(f"admission:{kind.value}")
    pts = (0, 1, 2)
    for _ in range(300):
        table = {(x, y): rng.choice(edge_values) for x, y in product(pts, repeat=2)}
        if rng.random() < 0.5:
            table.update({(y, x): v for (x, y), v in list(table.items()) if x < y})
        space = iv.Space(iv.FiniteCarrier(pts), lambda x, y: table[x, y], 1.0, kind)
        assert iv.admitted_k_values(space, ADMISSION_KS) == _per_k_admitted(
            space, ADMISSION_KS
        ), table


def test_admission_rejects_what_check_axioms_rejects(sqrt_square, two_point):
    with pytest.raises(ValueError, match="k_const must be >= 1"):
        iv.admitted_k_values(two_point, [2.0, 0.5])
    with pytest.raises(iv.ExhaustiveOnInfiniteCarrier):
        iv.admitted_k_values(sqrt_square, [2.0])
    assert iv.admitted_k_values(two_point, []) == []


# ---------------------------------------------------------------------------
# min_valid_k
# ---------------------------------------------------------------------------


def test_min_valid_k_on_sqrt_square_restriction(sqrt_square):
    pts = (0.0, 1.0, 4.0)
    # Independent oracle: exhaustive maximization over all 27 triples.
    d = sqrt_square.dist
    best = 1.0
    for x, y, z in product(pts, repeat=3):
        den = d(x, z) + d(z, y)
        if den > 0:
            best = max(best, d(x, y) / den)
    assert best == 2.0
    restricted = replace(sqrt_square, carrier=iv.FiniteCarrier(pts))
    assert iv.min_valid_k(restricted) == 2.0


def test_min_valid_k_is_one_for_genuine_metrics():
    s = replace(iv.abs_metric_space(), carrier=iv.FiniteCarrier((0.0, 1.0, 4.0, 9.0)))
    assert iv.min_valid_k(s) == 1.0


def test_min_valid_k_two_point(two_point):
    # Largest ratio is sigma(0,0) / (sigma(0,1) + sigma(1,0)) = 2 / 2 = 1.
    assert iv.min_valid_k(two_point) == 1.0


def test_min_valid_k_raises_without_finite_bound():
    s = iv.table_space((0, 1, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(iv.NoFiniteK):
        iv.min_valid_k(s)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=9.0),
        min_size=2,
        max_size=5,
        unique=True,
    )
)
@example([0.0, 5e-324])  # subnormal: K * detour rounds back onto d(x, y)
@settings(max_examples=60, deadline=None)
def test_min_valid_k_is_sharp(points):
    # k* passes the triangle axiom; shaving it by 1e-9 relative must fail.
    s = replace(iv.sqrt_square_space(), carrier=iv.FiniteCarrier(tuple(points)))
    k_star = iv.min_valid_k(s)
    at_k = iv.Space(s.carrier, s.dist, k_star, s.kind, s.name, True)
    assert iv.check_axioms(at_k, iv.Exhaustive()).passed
    if k_star > 1.0:
        shaved = iv.Space(s.carrier, s.dist, k_star * (1 - 1e-9), s.kind, s.name, True)
        report = iv.check_axioms(shaved, iv.Exhaustive())
        assert any(v.axiom_id == "D3" for v in report.violations)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_pairs_cover_the_anchor_grid(sqrt_square):
    pairs = iv.sample_pairs(sqrt_square, 100, seed=7)
    for a in (0.0, 1.0, 10.0):
        for b in (0.0, 1.0, 10.0):
            assert (a, b) in pairs


def test_sampling_is_deterministic(sqrt_square):
    assert iv.sample_triples(sqrt_square, 500, 3) == iv.sample_triples(
        sqrt_square, 500, 3
    )
    assert iv.sample_pairs(sqrt_square, 500, 3) == iv.sample_pairs(sqrt_square, 500, 3)


# The randrange loops the bulk sampler replaced, kept as its reference.


def _randrange_points(space, n, seed):
    rng = random.Random(seed)
    pool, anchors = _pool_and_anchors(space, rng)
    out = list(anchors[:n])
    while len(out) < n:
        out.append(pool[rng.randrange(len(pool))])
    return out


def _randrange_pairs(space, n, seed):
    rng = random.Random(seed)
    pool, anchors = _pool_and_anchors(space, rng)
    pairs = list(islice(product(anchors, repeat=2), n))
    while len(pairs) < n:
        pairs.append((pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]))
    return pairs


def _randrange_triples(space, n, seed):
    rng = random.Random(seed)
    pool, anchors = _pool_and_anchors(space, rng)
    triples = list(islice(product(anchors, repeat=3), n))
    while len(triples) < n:
        triples.append(
            (
                pool[rng.randrange(len(pool))],
                pool[rng.randrange(len(pool))],
                pool[rng.randrange(len(pool))],
            )
        )
    return triples


def _uniform_table(size):
    labels = tuple(f"p{i}" for i in range(size))
    return iv.table_space(labels, [[float(i != j) for j in range(size)] for i in range(size)])


@pytest.mark.parametrize(
    "space, pool_size",
    [(_uniform_table(size), size) for size in (1, 2, 3, 5)] + [(iv.sqrt_square_space(), 1024)],
    ids=["pool1", "pool2", "pool3", "pool5", "pool1024"],
)
@pytest.mark.parametrize(
    "arity, sampler, reference",
    [
        (1, iv.sample_points, _randrange_points),
        (2, iv.sample_pairs, _randrange_pairs),
        (3, iv.sample_triples, _randrange_triples),
    ],
    ids=["points", "pairs", "triples"],
)
def test_bulk_sampler_matches_randrange(space, pool_size, arity, sampler, reference):
    pool, anchors = _pool_and_anchors(space, random.Random(0))
    assert len(pool) == pool_size
    tuples = len(anchors) ** arity
    # Below, at and above the anchor count; the largest spans several chunks.
    sizes = sorted({1, max(1, tuples - 1), tuples, tuples + 1, tuples + 2500})
    for seed in range(24):
        for n in sizes:
            expected = reference(space, n, seed)
            assert len(expected) == n
            assert sampler(space, n, seed) == expected, (seed, n)
            assert iv.sample(space, n, seed, arity) == expected, (seed, n)


def _bare_violations(space):
    """check_axioms on a finite carrier with every slack test unguarded."""
    d, kind, pts = space.dist, space.kind, space.carrier.points
    sym_id, zero_id, tri_id = _AXIOM_IDS[kind]
    out = []
    for x, y in product(pts, repeat=2):
        dxy = d(x, y)
        if exceeds(0.0, dxy):
            out.append(("nonneg", (x, y), dxy, 0.0))
        dyx = d(y, x)
        if differs(dxy, dyx):
            out.append((sym_id, (x, y), dxy, dyx))
        if kind is iv.SpaceKind.PARTIAL_METRIC:
            dxx, dyy = d(x, x), d(y, y)
            if x != y and not differs(dxx, dxy) and not differs(dyy, dxy):
                out.append(("P1", (x, y), dxy, dxx))
            if exceeds(dxx, dxy):
                out.append(("P2", (x, y), dxx, dxy))
        elif dxy == 0.0 and x != y:
            out.append((zero_id, (x, y), dxy, 0.0))
    if kind is iv.SpaceKind.B_METRIC:
        for x in pts:
            if exceeds(d(x, x), 0.0):
                out.append(("D1", (x, x), d(x, x), 0.0))
    b_kind = kind in (iv.SpaceKind.B_METRIC, iv.SpaceKind.B_METRIC_LIKE)
    factor = space.k_const if b_kind else 1.0
    partial = kind is iv.SpaceKind.PARTIAL_METRIC
    for x, y, z in product(pts, repeat=3):
        lhs = d(x, y)
        detour = d(x, z) + d(z, y)
        rhs = factor * detour
        if partial:
            rhs -= d(z, z)
        if exceeds(lhs, rhs) or (
            not partial and detour > 0.0 and rhs <= lhs and exceeds(lhs / detour, factor)
        ):
            out.append((tri_id, (x, y, z), lhs, rhs))
    return out


@pytest.mark.parametrize("kind", list(iv.SpaceKind))
def test_axiom_guards_agree_with_bare_slack_tests(kind, edge_values):
    rng = random.Random(f"guards:{kind.value}")
    pts = (0, 1, 2)
    for _ in range(400):
        table = {(x, y): rng.choice(edge_values) for x, y in product(pts, repeat=2)}
        if rng.random() < 0.5:
            table.update({(y, x): v for (x, y), v in list(table.items()) if x < y})
        k = rng.choice((1.0, 1.5, 2.0))
        space = iv.Space(iv.FiniteCarrier(pts), lambda x, y: table[x, y], k, kind)
        report = iv.check_axioms(space, iv.Exhaustive())
        got = [(v.axiom_id, v.witness, v.lhs, v.rhs) for v in report.violations]
        assert repr(got) == repr(_bare_violations(space)), table
