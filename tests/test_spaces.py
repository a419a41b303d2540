import importlib
import math
import pkgutil
import random
import struct
import tracemalloc
from dataclasses import is_dataclass, replace
from itertools import chain, islice, product, repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invorbit as iv
from invorbit.numerics import TOL_AXIOM, differs, exceeds
from invorbit.oracle import _symmetric_matrices
from invorbit.scenario import FAMILIES, build_space, normalize_scenario
from invorbit.spaces import _AXIOM_IDS, _pool_and_anchors, table_admitted_k_values


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
    assert s.carrier.equal(1.0, 1.0 + 1e-13)
    assert not s.carrier.equal(1.0, 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

# The types that stay dataclasses: Space is copied by dataclasses.replace,
# the other four validate their fields in __post_init__.  Every other record
# is a NamedTuple, which is far cheaper to define at import.
KEPT_DATACLASSES = {"FiniteCarrier", "IntervalCarrier", "RLHypothesis", "Sampled", "Space"}


def test_only_the_kept_types_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(iv.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"invorbit.{info.name}")
            found.update(
                name
                for name, value in vars(module).items()
                if isinstance(value, type) and is_dataclass(value)
            )
    assert found == KEPT_DATACLASSES


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_family_space_copies_with_a_new_dist(family):
    # The benchmark's span tracer counts distance calls this way.
    spec = {"family": family}
    if family == "table":
        spec.update(labels=["a", "b"], matrix=[[0, 1], [1, 0]], k_const=1.0, kind="b_metric")
    space = build_space(normalize_scenario({"space": spec, "run": {"command": "axioms"}}))
    calls = []
    counted = replace(space, dist=lambda x, y: calls.append((x, y)) or space.dist(x, y))
    x = space.carrier.points[0] if space.is_finite else space.carrier.lower
    assert counted.dist(x, x) == space.dist(x, x) and calls == [(x, x)]
    assert replace(counted, dist=space.dist) == space


def test_records_keep_their_repr_equality_hash_and_fields():
    ratios = (0.25, 0.125)
    verdict = iv.CauchyVerdict(0.25, 0.5, iv.CauchyOutcome.CAUCHY_CERTIFIED, ratios)
    trace = iv.OrbitTrace(
        (1.0, 0.5, 0.25), (0.5, 0.25), verdict, iv.Termination.MAX_ITERATIONS, 0, 2
    )
    violation = iv.AuditViolation(1.0, "b", 3.0, 4.5)
    verdict_text = (
        "CauchyVerdict(lambda_hat=0.25, threshold=0.5, verdict=<CauchyOutcome."
        "CAUCHY_CERTIFIED: 'cauchy_certified'>, per_step_ratios=(0.25, 0.125), "
        "divergent_steps=())"
    )
    cases = [
        (violation, "AuditViolation(x=1.0, y='b', lhs=3.0, rhs=4.5)", ("x", "y", "lhs", "rhs")),
        (
            verdict,
            verdict_text,
            ("lambda_hat", "threshold", "verdict", "per_step_ratios", "divergent_steps"),
        ),
        (
            trace,
            "OrbitTrace(computed_points=(1.0, 0.5, 0.25), computed_distances=(0.5, 0.25), "
            f"cauchy={verdict_text}, terminated_by=<Termination.MAX_ITERATIONS: "
            "'max_iterations'>, period=0, steps=2)",
            (
                "computed_points",
                "computed_distances",
                "cauchy",
                "terminated_by",
                "period",
                "steps",
            ),
        ),
    ]
    for record, text, fields in cases:
        values = tuple(getattr(record, name) for name in fields)
        twin = type(record)(*values)
        assert repr(record) == text
        assert record._fields == fields
        assert record == twin and record is not twin and hash(record) == hash(twin)
        assert hash(record) == hash(values)  # the frozen-dataclass hash
        assert record != type(record)(*values[:-1], "other")


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


def _counting_table_space(table):
    calls = []

    def dist(x, y):
        calls.append((x, y))
        return table[x][y]

    return iv.Space(iv.FiniteCarrier(tuple(range(len(table)))), dist), calls


def test_d_sharp_stays_a_number_near_the_largest_float():
    # 2 * d(x, y) overflows above about 9e307; inf - inf used to give nan,
    # even on the diagonal.
    s, calls = _counting_table_space([[1.7e308, 1e308], [1e308, 1.5e308]])
    assert iv.d_sharp(s, 0, 0) == iv.d_sharp(s, 1, 1) == 0.0
    assert iv.d_sharp(s, 0, 1) == iv.d_sharp(s, 1, 0) == 2.0 * abs(1e308 - 1.6e308)
    # A true residual past the largest float is infinite, not nan.
    s, _ = _counting_table_space([[0.0, 1.7e308], [1.7e308, 0.0]])
    assert iv.d_sharp(s, 0, 1) == math.inf
    assert len(calls) == 4 * 3  # still three distance reads per residual


@given(*[st.floats(min_value=0.0, max_value=1e308)] * 3)
@settings(max_examples=300, deadline=None)
@example(1e307, 1.7e308, 0.0)
def test_d_sharp_is_unchanged_where_it_is_finite(dxy, dxx, dyy):
    s, _ = _counting_table_space([[dxx, dxy], [dxy, dyy]])
    sharp = abs(2.0 * dxy - (dxx + dyy))
    if math.isfinite(sharp):
        assert iv.d_sharp(s, 0, 1) == sharp


def test_an_infinite_gap_exceeds_every_slack():
    assert exceeds(math.inf, 1.0)
    assert exceeds(1.0, -math.inf)
    assert exceeds(1e308, -1e308)  # the gap overflows
    assert not exceeds(math.inf, math.inf)
    assert not exceeds(math.nan, 1.0)
    assert not exceeds(1.0, math.inf)


def test_an_infinite_gap_differs_beyond_every_slack():
    assert differs(math.inf, 1.0)
    assert differs(1.0, math.inf)
    assert differs(-math.inf, 1.0)
    assert not differs(math.inf, math.inf)
    assert not differs(math.nan, 1.0)
    assert not differs(1.0, 1.0 + 1e-12)


# The kernels pick a larger or smaller value with a conditional where they
# used builtin max and min.  Each is checked against its max-based form,
# kept here as the reference, on every float (raw bit patterns give nan
# payloads and subnormals), the edges, ints and bools.
def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


EXACT_VALUES = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7e308])
    | st.integers(0, 2**64 - 1).map(_from_bits)
    | st.integers(-(2**60), 2**60)
    | st.booleans()
)


def _outcome(f, *args):
    """What f(*args) returns, with a float given by its bits; or what it raises."""
    try:
        got = f(*args)
    except (OverflowError, ArithmeticError) as error:
        return type(error)
    return (float, struct.pack("<d", got)) if type(got) is float else (type(got), got)


def _exceeds_with_max(value, bound):
    gap = value - bound
    return gap > 0.5 * TOL_AXIOM * max(abs(value), abs(bound)) or gap == math.inf


def _differs_with_max(a, b):
    gap = abs(a - b)
    return gap > TOL_AXIOM * max(abs(a), abs(b)) or gap == math.inf


@given(EXACT_VALUES, EXACT_VALUES)
@settings(max_examples=1500, deadline=None, derandomize=True)
@example(math.nan, 1.0)
@example(1.0, math.nan)
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(True, 1.0)
@example(1, True)
def test_the_kernels_equal_their_max_based_forms(x, y):
    dist = iv.max_partial_space().dist
    assert _outcome(dist, x, y) == _outcome(lambda a, b: float(max(a, b)), x, y)
    assert _outcome(exceeds, x, y) == _outcome(_exceeds_with_max, x, y)
    assert _outcome(differs, x, y) == _outcome(_differs_with_max, x, y)


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
            got = table_admitted_k_values(matrix, ADMISSION_KS)
            assert got == _per_k_admitted(iv.table_space(labels, matrix), ADMISSION_KS), matrix
            admitted += len(got)
    assert admitted > 0


def test_only_the_ratio_test_rejects_a_subnormal_triangle():
    # 1.3 * 2u rounds onto 3u, so the product test passes K = 1.3, while
    # the ratio 3u / 2u = 1.5 exceeds it.
    u = 5e-324
    matrix = [[0, 3 * u, u], [3 * u, 0, u], [u, u, 0]]
    assert 1.3 * (2 * u) == 3 * u and not exceeds(3 * u, 1.3 * (2 * u))
    assert table_admitted_k_values(matrix, ADMISSION_KS) == [1.5, 2.0, 3.0]
    assert _per_k_admitted(iv.table_space((0, 1, 2), matrix), ADMISSION_KS) == [1.5, 2.0, 3.0]


# Admission decides a b-metric-like table; the kinds it also decides are
# read from it by the `admission_as` fixture.  A partial metric is not.
@pytest.mark.parametrize(
    "kind", [iv.SpaceKind.METRIC_LIKE, iv.SpaceKind.B_METRIC, iv.SpaceKind.B_METRIC_LIKE]
)
def test_admission_matches_per_k_check_axioms_on_edge_values(kind, edge_values, admission_as):
    rng = random.Random(f"admission:{kind.value}")
    pts = (0, 1, 2)
    positive = [v for v in edge_values if v > 0.0]
    admitted = 0
    for _ in range(1000):
        table = {(x, y): rng.choice(edge_values) for x, y in product(pts, repeat=2)}
        if rng.random() < 0.5:
            table.update({(y, x): v for (x, y), v in list(table.items()) if x < y})
        # Only a symmetric table with a positive off-diagonal can pass the
        # pair axioms, and a b-metric one needs a zero diagonal: most
        # tables are drawn so, or nearly every comparison is a refusal.
        if rng.random() < 0.9:
            zero_diagonal = rng.random() < 0.5
            for x, y in product(pts, repeat=2):
                if x < y:
                    table[x, y] = table[y, x] = rng.choice(positive)
                elif x == y and zero_diagonal:
                    table[x, y] = 0.0
        space = iv.Space(iv.FiniteCarrier(pts), lambda x, y: table[x, y], 1.0, kind)
        rows = [[table[x, y] for y in pts] for x in pts]
        got = _per_k_admitted(space, ADMISSION_KS)
        assert got == admission_as(rows, ADMISSION_KS, kind), table
        admitted += bool(got)
    # 138 to 178 of the 1,000 tables are admitted at some K, per kind.
    assert admitted >= 100


# Every comparison against nan is false, so only an explicit test catches
# it: a nan distance is a nonneg violation.
NAN_TABLE = [[0.0, math.nan], [math.nan, 0.0]]


def _on_two_points(rows, kind):
    return iv.Space(iv.FiniteCarrier((0, 1)), lambda x, y: rows[x][y], 1.0, kind)


@pytest.mark.parametrize("kind", list(iv.SpaceKind))
def test_a_nan_distance_fails_the_axiom_checks(kind):
    report = iv.check_axioms(_on_two_points(NAN_TABLE, kind), iv.Exhaustive())
    nonneg = [v for v in report.violations if v.axiom_id == "nonneg"]
    assert not report.passed
    assert [v.witness for v in nonneg] == [(0, 1), (1, 0)]
    assert all(math.isnan(v.lhs) and v.rhs == 0.0 for v in nonneg)


def test_a_nan_distance_is_not_admitted():
    assert table_admitted_k_values(NAN_TABLE, [1.0, 2.0]) == []


def test_a_nan_self_distance_fails_a_partial_metric():
    # Without the nonneg test this table passes: no P1, P2, P3 or P4 test
    # fires on a comparison with nan.  The exhaustive pair (0, 0) reads it.
    rows = [[math.nan, 1.0], [1.0, 0.5]]
    report = iv.check_axioms(_on_two_points(rows, iv.SpaceKind.PARTIAL_METRIC), iv.Exhaustive())
    assert [(v.axiom_id, v.witness) for v in report.violations] == [("nonneg", (0, 0))]


@pytest.mark.parametrize("strategy", [iv.Exhaustive(), iv.Sampled(50, 1)])
def test_a_nan_self_distance_is_not_read_as_equal_in_p1(strategy):
    # d(1, 1) = d(1, 0) = 1.0 says nothing about point 0, whose d(0, 0) is
    # nan: P1 must not read that nan as equal to d(0, 1).  Only the nonneg
    # violation at (0, 0), read once per leading pair (0, 0), remains.
    rows = [[math.nan, 1.0], [1.0, 1.0]]
    report = iv.check_axioms(_on_two_points(rows, iv.SpaceKind.PARTIAL_METRIC), strategy)
    pairs = {(v.axiom_id, v.witness) for v in report.violations if len(v.witness) == 2}
    assert pairs == {("nonneg", (0, 0))}


# A sampled check reads d(x, y) as a pair only for each triple's leading
# (x, y); its other reads are tested for nan where they are made.  On a
# finite carrier the first sampled triples are the anchor triples in
# product order, so Sampled(n, seed) with n <= len(points) ** 3 reads the
# first n of them whatever the seed.


def _sampled_on_table(table, kind, n):
    pts = tuple(sorted({x for x, _ in table}))
    space = iv.Space(iv.FiniteCarrier(pts), lambda x, y: table[x, y], 1.0, kind)
    assert list(iv.sample_triples(space, n, 0)) == list(islice(product(pts, repeat=3), n))
    report = iv.check_axioms(space, iv.Sampled(n, 0))
    return [(v.axiom_id, v.witness, v.lhs, v.rhs) for v in report.violations]


def _unit_table(n, kind=iv.SpaceKind.B_METRIC_LIKE):
    if kind is iv.SpaceKind.PARTIAL_METRIC:
        return {(x, y): 1.0 + max(x, y) for x, y in product(range(n), repeat=2)}
    return {(x, y): float(x != y) for x, y in product(range(n), repeat=2)}


def test_a_sampled_check_reports_a_nan_reverse_distance():
    # d(0, 1) leads the third triple and d(1, 0) is nan; (1, 0) leads none.
    # Symmetry compares false against nan, so only the nan test reports it.
    # The second triple reads d(1, 0) as a triangle leg.
    table = {**_unit_table(2), (1, 0): math.nan}
    assert repr(_sampled_on_table(table, iv.SpaceKind.B_METRIC_LIKE, 3)) == repr(
        [("nonneg", (1, 0), math.nan, 0.0), ("D3", (0, 0, 1), 0.0, math.nan)]
    )


@pytest.mark.parametrize(
    "kind, read, tri_id",
    [
        (iv.SpaceKind.B_METRIC_LIKE, (0, 2), "D3"),
        (iv.SpaceKind.B_METRIC_LIKE, (2, 0), "D3"),
        (iv.SpaceKind.PARTIAL_METRIC, (2, 2), "P4"),
    ],
)
def test_a_sampled_check_fails_a_triangle_whose_rhs_is_nan(kind, read, tri_id):
    # The triples (0, 0, z) lead only the pair (0, 0); the third reads the
    # nan d(0, 2), d(2, 0) or d(2, 2) only in its rhs.
    table = {**_unit_table(3, kind), read: math.nan}
    lhs = table[0, 0]
    assert repr(_sampled_on_table(table, kind, 3)) == repr([(tri_id, (0, 0, 2), lhs, math.nan)])


def test_a_sampled_check_reports_a_nan_self_distance_on_a_partial_metric():
    # d(1, 1) is nan; (1, 1) leads none of the first five triples.  The
    # pair (0, 1) reads it as d(y, y) twice, and (1, 0) as d(x, x).  The
    # triples (0, 0, 1) and (0, 1, 1) read it in their rhs.
    table = {**_unit_table(2, iv.SpaceKind.PARTIAL_METRIC), (1, 1): math.nan}
    nan_self = ("nonneg", (1, 1), math.nan, 0.0)
    assert repr(_sampled_on_table(table, iv.SpaceKind.PARTIAL_METRIC, 5)) == repr(
        [nan_self] * 3 + [("P4", (0, 0, 1), 1.0, math.nan), ("P4", (0, 1, 1), 2.0, math.nan)]
    )


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
    at_k = iv.Space(s.carrier, s.dist, k_star, s.kind, True)
    assert iv.check_axioms(at_k, iv.Exhaustive()).passed
    if k_star > 1.0:
        shaved = iv.Space(s.carrier, s.dist, k_star * (1 - 1e-9), s.kind, True)
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
    assert list(iv.sample_triples(sqrt_square, 500, 3)) == list(
        iv.sample_triples(sqrt_square, 500, 3)
    )
    assert list(iv.sample_pairs(sqrt_square, 500, 3)) == list(iv.sample_pairs(sqrt_square, 500, 3))
    # A sample is sized, and each iteration of it draws the same items again.
    for arity in (1, 2, 3):
        sample = iv.sample(sqrt_square, 3 * iv.spaces.DRAW_CHUNK, 3, arity)
        assert len(sample) == 3 * iv.spaces.DRAW_CHUNK
        first = list(sample)
        assert len(first) == len(sample) and list(sample) == first


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
            assert list(sampler(space, n, seed)) == expected, (seed, n)
            assert list(iv.sample(space, n, seed, arity)) == expected, (seed, n)


_REFERENCES = {1: _randrange_points, 2: _randrange_pairs, 3: _randrange_triples}


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize(
    "pool_size",
    [1024, 1 << 15, (1 << 16) - 1],
    ids=["pool1024", "pool2^15", "pool2^16-1"],
)
def test_spread_table_draws_match_randrange(monkeypatch, pool_size, arity):
    # An interval pool of any size: few anchors, so every arity draws.
    # The spread table is 1024 << 5, 2**15 << 1 and 2**16 - 1 entries.
    monkeypatch.setattr(iv.spaces, "POOL_SIZE", pool_size)
    space = iv.sqrt_square_space()
    pool, anchors = _pool_and_anchors(space, random.Random(0))
    assert len(pool) == pool_size
    lead = len(anchors) ** arity
    # One draw tuple, about one chunk of words, and several chunks.
    sizes = [lead + 1, lead + iv.spaces.DRAW_CHUNK // arity, lead + 3 * iv.spaces.DRAW_CHUNK]
    for seed in (0, 7, 2024):
        # A shorter randrange sample is a prefix of a longer one.
        reference = _REFERENCES[arity](space, sizes[-1], seed)
        for n in sizes:
            lazy = iv.sample(space, n, seed, arity)
            assert list(lazy) == reference[:n], (seed, n)
        assert list(lazy) == reference, seed  # a second iteration draws afresh


@pytest.mark.parametrize("pool_size", [1 << 16, (1 << 16) + 1])
def test_a_pool_of_2_16_points_or_more_is_refused(monkeypatch, pool_size):
    # The spread table needs each word's high half to decide its draw.
    monkeypatch.setattr(iv.spaces, "POOL_SIZE", pool_size)
    lazy = iv.sample(iv.sqrt_square_space(), 100, 0, 2)
    with pytest.raises(ValueError, match=rf"fewer than 2\*\*16 points, not {pool_size}$"):
        list(lazy)


@pytest.mark.parametrize("pool_size", [1, 2, 3, 100, 1024, 1 << 15, (1 << 16) - 1])
def test_spread_table_repeats_each_point_in_a_row(pool_size):
    # The slice-assignment build gives the list of the item-by-item one.
    pool = [f"p{i}" for i in range(pool_size)]
    repeats = 1 << (16 - pool_size.bit_length())
    expected = list(chain.from_iterable(map(repeat, pool, repeat(repeats))))
    table = iv.spaces._spread_table(pool)
    assert table == expected
    assert 1 << 15 <= len(table) < 1 << 16


def test_sqrt_square_distance_is_inf_where_its_square_overflows():
    d = iv.sqrt_square_space().dist
    assert d(1.7e308, 1.7e308) == d(1e308, 5e307) == math.inf
    # Finite squares are those of `**`, bit for bit.
    for x, y in [(3.7, 8.1), (1e-310, 2.5), (1e154, 3e153), (4e307, 4e307)]:
        assert d(x, y) == (math.sqrt(x) + math.sqrt(y)) ** 2


def _bare_two_pass(space, pairs, singles, triples, sampled=False):
    """check_axioms with every slack test unguarded, in two passes: the
    pair axioms on `pairs`, D1 of a b-metric on `singles`, then the
    triangle on `triples`.  With `sampled`, a nan among the other reads
    of a pair (x != y) is a nonneg violation at its own pair, and a nan
    rhs fails the triangle."""
    d, kind = space.dist, space.kind
    sym_id, zero_id, tri_id = _AXIOM_IDS[kind]
    out = []
    for x, y in pairs:
        dxy = d(x, y)
        if dxy != dxy or exceeds(0.0, dxy):  # nan is a nonneg violation
            out.append(("nonneg", (x, y), dxy, 0.0))
        dyx = d(y, x)
        if sampled and x != y and dyx != dyx:
            out.append(("nonneg", (y, x), dyx, 0.0))
        if differs(dxy, dyx):
            out.append((sym_id, (x, y), dxy, dyx))
        if kind is iv.SpaceKind.PARTIAL_METRIC:
            dxx, dyy = d(x, x), d(y, y)
            # A nan self-distance is equal to nothing.
            no_nan = dxx == dxx and dyy == dyy
            if x != y and not differs(dxx, dxy) and not differs(dyy, dxy) and no_nan:
                out.append(("P1", (x, y), dxy, dxx))
            if sampled and x != y and dxx != dxx:
                out.append(("nonneg", (x, x), dxx, 0.0))
            if exceeds(dxx, dxy):
                out.append(("P2", (x, y), dxx, dxy))
            if sampled and x != y and dyy != dyy:
                out.append(("nonneg", (y, y), dyy, 0.0))
        elif dxy == 0.0 and x != y:
            out.append((zero_id, (x, y), dxy, 0.0))
    if kind is iv.SpaceKind.B_METRIC:
        for x in singles:
            if exceeds(d(x, x), 0.0):
                out.append(("D1", (x, x), d(x, x), 0.0))
    b_kind = kind in (iv.SpaceKind.B_METRIC, iv.SpaceKind.B_METRIC_LIKE)
    factor = space.k_const if b_kind else 1.0
    partial = kind is iv.SpaceKind.PARTIAL_METRIC
    for x, y, z in triples:
        lhs = d(x, y)
        detour = d(x, z) + d(z, y)
        rhs = factor * detour
        if partial:
            rhs -= d(z, z)
        if (
            exceeds(lhs, rhs)
            or (not partial and detour > 0.0 and rhs <= lhs and exceeds(lhs / detour, factor))
            or (sampled and rhs != rhs)
        ):
            out.append((tri_id, (x, y, z), lhs, rhs))
    return out


def _bare_violations(space):
    """The two-pass reference of an exhaustive check on a finite carrier."""
    pts = space.carrier.points
    return _bare_two_pass(space, product(pts, repeat=2), pts, product(pts, repeat=3))


def _bare_sampled_violations(space, triples):
    """The two-pass reference of a sampled check on `triples`: the pair
    axioms on their leading pairs and D1 on each of their points once."""
    pairs = [(x, y) for x, y, _ in triples]
    singles = dict.fromkeys(p for t in triples for p in t)
    return _bare_two_pass(space, pairs, singles, triples, sampled=True)


def _edge_tables(kind, edge_values):
    """400 seeded 3-point spaces of `kind`, their distances drawn from the
    edge values, half of them symmetric, with K drawn from 1, 1.5 and 2."""
    rng = random.Random(f"guards:{kind.value}")
    pts = (0, 1, 2)
    for _ in range(400):
        table = {(x, y): rng.choice(edge_values) for x, y in product(pts, repeat=2)}
        if rng.random() < 0.5:
            table.update({(y, x): v for (x, y), v in list(table.items()) if x < y})
        k = rng.choice((1.0, 1.5, 2.0))
        yield table, iv.Space(iv.FiniteCarrier(pts), lambda x, y, t=table: t[x, y], k, kind)


def _listed(report):
    return [(v.axiom_id, v.witness, v.lhs, v.rhs) for v in report.violations]


@pytest.mark.parametrize("kind", list(iv.SpaceKind))
def test_axiom_guards_agree_with_bare_slack_tests(kind, edge_values):
    for table, space in _edge_tables(kind, edge_values):
        report = iv.check_axioms(space, iv.Exhaustive())
        assert repr(_listed(report)) == repr(_bare_violations(space)), table


@pytest.mark.parametrize("kind", list(iv.SpaceKind))
def test_sampled_axioms_agree_with_the_two_pass_reference(kind, edge_values):
    # 27 anchor triples, then 33 drawn ones: leading pairs and points repeat.
    for seed, (table, space) in enumerate(_edge_tables(kind, edge_values)):
        report = iv.check_axioms(space, iv.Sampled(60, seed))
        triples = iv.sample_triples(space, 60, seed)
        assert report.checked_pairs == report.checked_triples == len(triples) == 60
        expected = _bare_sampled_violations(space, triples)
        assert repr(_listed(report)) == repr(expected), (seed, table)


def _b_metric_with_self_distances():
    """A test-only b-metric on [0, 10] whose self-distances above 5 are
    positive, so D1 fires, and whose distance is nan where x + y lies in
    (3, 3.5), so some triangles read a nan leg."""

    def dist(x, y):
        if 3.0 < x + y < 3.5:
            return math.nan
        return abs(x - y) + (0.25 if x == y and x > 5.0 else 0.0)

    return iv.Space(iv.IntervalCarrier(0.0, 10.0), dist, 1.0, iv.SpaceKind.B_METRIC)


def test_a_streamed_check_matches_the_check_of_its_listed_sample():
    # Past several draw chunks, the one-pass check of a lazy sample reports
    # what the two-pass reference reports on the listed triples, D1 in the
    # order dict.fromkeys(chain.from_iterable(triples)) gives its points.
    space = _b_metric_with_self_distances()
    n = 3 * iv.spaces.DRAW_CHUNK + 5
    for seed in range(3):
        report = iv.check_axioms(space, iv.Sampled(n, seed))
        triples = list(iv.sample_triples(space, n, seed))
        assert report.checked_pairs == report.checked_triples == len(triples) == n
        listed = _listed(report)
        assert repr(listed) == repr(_bare_sampled_violations(space, triples)), seed
        ids = [v[0] for v in listed]
        assert ids.count("D1") > 1 and "nonneg" in ids and "D3" in ids
        assert any(math.isnan(v[3]) for v in listed if v[0] == "D3")


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _passing_phi_audit(n):
    space = iv.square_diff_space()
    forward, preimage = iv.linear_map(3.0)
    maps = iv.MapPair(forward, forward, preimage, preimage)
    report = iv.audit(space, maps, iv.PhiHypothesis(iv.affine_phi(5.0, 0.0), 4.0), iv.Sampled(n, 1))
    assert report.passed and report.checked_pairs == n


def _passing_axioms(family):
    def run(n):
        report = iv.check_axioms(family(), iv.Sampled(n, 1))
        assert report.passed and report.checked_triples == n

    return run


@pytest.mark.parametrize(
    "run",
    [
        _passing_axioms(iv.sqrt_square_space),
        _passing_axioms(iv.abs_metric_space),
        _passing_axioms(iv.max_partial_space),
        _passing_phi_audit,
    ],
    ids=["sqrt_square", "abs_metric", "max_partial", "phi_audit"],
)
def test_a_passing_sampled_run_holds_memory_bounded_in_n(run):
    # A sample is drawn as it is read: ten times the draws may not hold a
    # megabyte more (a listed sample holds about 72 bytes per triple).
    assert _traced_peak(lambda: run(200_000)) - _traced_peak(lambda: run(20_000)) < 1 << 20
