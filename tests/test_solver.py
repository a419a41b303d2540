import math
import struct
from dataclasses import replace
from functools import lru_cache
from itertools import cycle, islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invorbit as iv
from invorbit.numerics import TOL_FIX, exceeds, tail_window
from unittest import mock

from invorbit import report as report_module
from invorbit.report import write_trace_csv
from invorbit.solver import DEFAULT_MAX_STEPS, _resolve_pairs, check_roundtrip, expansion_test


# ---------------------------------------------------------------------------
# Map builders and round trips
# ---------------------------------------------------------------------------


def test_linear_map_round_trips():
    fwd, pre = iv.linear_map(9.0)
    assert fwd(pre(81.0)) == 81.0
    assert pre(81.0) == 9.0


def test_linear_map_needs_positive_slope():
    with pytest.raises(ValueError):
        iv.linear_map(0.0)


def test_permutation_map_inverts_table():
    fwd, pre = iv.permutation_map({0: 1, 1: 2, 2: 0})
    assert [fwd(i) for i in range(3)] == [1, 2, 0]
    assert [pre(i) for i in range(3)] == [2, 0, 1]


def test_broken_preimage_is_detected(sqrt_square):
    fwd, _ = iv.linear_map(9.0)
    broken = iv.MapPair(fwd, fwd, lambda y: y / 3.0, lambda y: y / 9.0)
    with pytest.raises(iv.PreimageBroken):
        iv.inverse_orbit(sqrt_square, broken, 81.0)


# ---------------------------------------------------------------------------
# inverse_orbit
# ---------------------------------------------------------------------------


def test_orbit_prefix_from_81(sqrt_square, nine_identity):
    # Closed form: even points are 81 / 9**n, each repeated by the identity side.
    trace = iv.inverse_orbit(sqrt_square, nine_identity, 81.0)
    assert trace.points[:5] == (81.0, 9.0, 9.0, 1.0, 1.0)
    assert trace.points[5] == pytest.approx(1.0 / 9.0, rel=1e-15)
    for n in range(0, 20, 2):
        assert trace.points[n] == pytest.approx(81.0 / 9.0 ** (n // 2), rel=1e-12)


def test_orbit_obeys_the_construction(sqrt_square, nine_identity):
    trace = iv.inverse_orbit(sqrt_square, nine_identity, 81.0, max_steps=200)
    pts = trace.points
    for i in range(len(pts) - 1):
        if i % 2 == 0:
            assert sqrt_square.carrier.equal(nine_identity.t_forward(pts[i + 1]), pts[i])
        else:
            assert sqrt_square.carrier.equal(nine_identity.s_forward(pts[i + 1]), pts[i])
    assert len(trace.successive_distances) == len(pts) - 1
    for i, d in enumerate(trace.successive_distances):
        assert d == sqrt_square.dist(pts[i], pts[i + 1])


def test_orbit_distances_from_one(sqrt_square, nine_identity):
    # D(x_{2n}, x_{2n+1}) = (16/9) * 9**-n and D(x_{2n+1}, x_{2n+2}) = (4/9) * 9**-n.
    trace = iv.inverse_orbit(sqrt_square, nine_identity, 1.0, max_steps=100)
    expected = [16 / 9, 4 / 9, 16 / 81, 4 / 81, 16 / 729, 4 / 729]
    for got, want in zip(trace.successive_distances, expected):
        assert got == pytest.approx(want, rel=1e-12)


def test_identity_orbit_hits_fixed_point_immediately(sqrt_square, identity_pair):
    trace = iv.inverse_orbit(sqrt_square, identity_pair, 7.0)
    assert tuple(trace.points) == (7.0, 7.0)
    assert trace.terminated_by is iv.Termination.FIXED_POINT_HIT


def test_stalled_but_unfixed_point_keeps_iterating(sqrt_square, nine_identity):
    # The identity side repeats points; only a common fixed point stops the orbit.
    trace = iv.inverse_orbit(sqrt_square, nine_identity, 81.0)
    assert trace.terminated_by is iv.Termination.FIXED_POINT_HIT
    assert trace.points[-1] == 0.0
    assert len(trace.points) > 600


def test_orbit_start_outside_carrier_rejected(sqrt_square, nine_identity):
    with pytest.raises(ValueError):
        iv.inverse_orbit(sqrt_square, nine_identity, -1.0)


def test_orbit_adjacent_pairs_alternate_ordering():
    pairs = iv.orbit_adjacent_pairs(("a", "b", "c", "d", "e"))
    # T takes odd-indexed points, S even-indexed ones.
    assert pairs == [("b", "c"), ("d", "c"), ("d", "e")]


def _branching_adjacent_pairs(points):
    """The per-index loop that orders each pair by its parity, as a reference."""
    out = []
    for i in range(1, len(points) - 1):
        a, b = points[i], points[i + 1]
        out.append((a, b) if i % 2 == 1 else (b, a))
    return out


@pytest.mark.parametrize("length", range(8))
def test_orbit_adjacent_pairs_match_the_branching_loop(length):
    points = tuple(range(length))
    assert iv.orbit_adjacent_pairs(points) == _branching_adjacent_pairs(points)


def _cycled_points(length, computed, period):
    """Distinct objects up to point `computed`, which is point
    `computed - period`; every later point is the one `period` before it."""
    points = [object() for _ in range(length if computed is None else computed)]
    while len(points) < length:
        points.append(points[-period])
    return tuple(points)


LAZY_PAIRS = (
    [(n, None, 0) for n in range(13)]
    + [(n, c, 2) for n in range(13) for c in range(2, n - 1)]
    + [(n, c, p) for p in (4, 6) for n in range(17) for c in range(p, n - 1)]
)


@pytest.mark.parametrize(
    "length, computed, period",
    LAZY_PAIRS,
    ids=[f"{n}-{c}" if p < 4 else f"{n}-{c}-period{p}" for n, c, p in LAZY_PAIRS],
)
def test_lazy_orbit_pairs_match_the_adjacent_pairs(length, computed, period):
    # A trace of `computed` steps walks the pairs of its computed points,
    # at least one period of them, and the pairs after them repeat the
    # last period of the walk.
    points = _cycled_points(length, computed, period)
    stored = points if computed is None else points[: computed + 1]
    trace = iv.OrbitTrace(stored, (), None, iv.Termination.MAX_ITERATIONS, period, length - 1)
    walked, edge, repeats = _resolve_pairs(iv.abs_metric_space(), trace)
    assert not isinstance(walked, list)
    walked = list(walked)
    assert len(walked) - edge == period or not repeats
    expanded = walked + list(islice(cycle(walked[edge:]), repeats))
    assert expanded == iv.orbit_adjacent_pairs(points)
    assert len(expanded) == max(length - 2, 0)
    assert len(walked) <= max(len(stored) - 2, period)


def _indexed_orbit(space, maps, x0, max_steps=DEFAULT_MAX_STEPS, tol_fix=TOL_FIX):
    """The orbit loop that looks up every callable on every step, as a reference."""
    if max_steps < 2:
        raise ValueError("max_steps must be at least 2")
    if not space.carrier.contains(x0):
        raise ValueError(f"start point {x0!r} is outside the carrier")
    pts = [x0]
    dists = []
    terminated = iv.Termination.MAX_ITERATIONS
    sides = ((maps.t_forward, maps.t_preimage), (maps.s_forward, maps.s_preimage))
    for step in range(max_steps):
        cur = pts[-1]
        forward, preimage = sides[step % 2]
        nxt = preimage(cur)
        back = forward(nxt)
        if not space.carrier.equal(back, cur):
            raise iv.PreimageBroken(
                f"step {step}: forward(preimage({cur!r})) = {back!r} != {cur!r}"
            )
        if not space.carrier.contains(nxt):
            raise iv.PreimageBroken(f"step {step}: preimage {nxt!r} left the carrier")
        pts.append(nxt)
        dists.append(space.dist(cur, nxt))
        if nxt == cur and maps.t_forward(nxt) == nxt and maps.s_forward(nxt) == nxt:
            terminated = iv.Termination.FIXED_POINT_HIT
            break
    else:
        w = tail_window(len(dists))
        if dists and max(dists[len(dists) - w :]) <= tol_fix:
            terminated = iv.Termination.TOLERANCE_MET
    cauchy = (
        iv.geometric_cauchy_check(dists, space.k_const, noise_floor=tol_fix)
        if len(dists) >= 2
        else iv.CauchyVerdict(0.0, 1.0 / space.k_const, iv.CauchyOutcome.INCONCLUSIVE, ())
    )
    return iv.OrbitTrace(tuple(pts), tuple(dists), cauchy, terminated, 0, len(dists))


def _bits(value):
    return struct.pack("<d", value).hex() if isinstance(value, float) else repr(value)


def _orbit_outcome(orbit, *args):
    try:
        trace = orbit(*args)
    except Exception as exc:  # noqa: BLE001 - the parity is in what is raised
        return type(exc), str(exc)
    c = trace.cauchy
    return (
        tuple(map(_bits, trace.points)),
        tuple(map(_bits, trace.successive_distances)),
        (_bits(c.lambda_hat), _bits(c.threshold), c.verdict, tuple(map(_bits, c.per_step_ratios))),
        c.divergent_steps,
        trace.terminated_by,
    )


def _pair(t, s):
    return iv.MapPair(t[0], s[0], t[1], s[1])


def _linear_pair(c):
    return _pair(iv.linear_map(c), iv.linear_map(c))


def _broken_below(bound):
    """x -> 9x whose preimage divides by 3, not 9, at and below `bound`."""
    return lambda y: y / 9.0 if y > bound else y / 3.0


def _signed_zero_revisit():
    """Identity maps whose selectors step by 1e-13 (within TOL_POINT).

    From 0.0 the orbit is 0.0, 1e-13, -0.0, 2e-13, 3e-13, ...: the T
    selector reads the sign of zero, so -0.0 two steps after 0.0 leads
    elsewhere, and taking the two for one point would repeat 1e-13, -0.0.
    """
    ident = lambda x: x  # noqa: E731
    t_pre = lambda y: y + (1e-13 if math.copysign(1.0, y) > 0 else 2e-13)  # noqa: E731
    s_pre = lambda y: -0.0 if y == 1e-13 else y + 1e-13  # noqa: E731
    return iv.MapPair(ident, ident, t_pre, s_pre)


# The three families of the long_orbit benchmark workload, T = S = c*x, on
# the seed-1 maps and starts: each orbit stalls on one subnormal point,
# after 38,806, 25,411 and 19,151 steps, and runs its 75,000-step budget.
STALLED = {
    "stalled_abs_metric": (iv.abs_metric_space, 1.0194201360826156, 206.3985634044328),
    "stalled_max_partial": (iv.max_partial_space, 1.0297072879420501, 11.289396549241513),
    "stalled_sum_metric_like": (
        iv.sum_metric_like_space,
        1.0396462985255253,
        17.197997990489224,
    ),
}


def _orbit_cases():
    sqrt_square = iv.sqrt_square_space()
    abs_metric = iv.abs_metric_space()
    nine = _pair(iv.linear_map(9.0), iv.identity_map())
    ident = _pair(iv.identity_map(), iv.identity_map())
    cycle = iv.permutation_map({"a": "b", "b": "c", "c": "a"})
    labels = iv.table_space(("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    nine_fwd = lambda x: 9.0 * x  # noqa: E731
    broken_t = iv.MapPair(nine_fwd, nine_fwd, _broken_below(1e300), _broken_below(0.0))
    broken_s = iv.MapPair(nine_fwd, nine_fwd, _broken_below(0.0), _broken_below(1.0))
    calls = []

    def failing_dist(x, y):
        calls.append(x)
        if len(calls) == 3:
            raise ArithmeticError(f"distance failed at {x!r}")
        return abs(x - y)

    # The S preimage breaks at step 3, after the distance fails at step 2.
    late_break = iv.Space(abs_metric.carrier, failing_dist)
    two_labels = iv.table_space(("a", "b"), [[0, 1], [1, 0]])
    swap = iv.permutation_map({"a": "b", "b": "a"})
    # S's selector swaps but S is the identity: step 1 breaks on the point
    # that would close the two-step cycle a, b, a.
    broken_swing = _pair(swap, (iv.identity_map()[0], swap[1]))
    stalled = {
        name: (family(), _linear_pair(c), x0, 75_000)
        for name, (family, c, x0) in STALLED.items()
    }
    return {
        **stalled,
        "swing": (two_labels, _pair(swap, swap), "a", 50),
        "swing_cycle_at_last_step": (two_labels, _pair(swap, swap), "a", 2),
        "swing_one_step_after_cycle": (two_labels, _pair(swap, swap), "a", 3),
        "signed_zero_revisit": (abs_metric, _signed_zero_revisit(), 0.0, 6),
        "broken_at_cycle": (two_labels, broken_swing, "a"),
        "nine_identity": (sqrt_square, nine, 81.0),
        "fixed_at_once": (sqrt_square, ident, 7.0),
        "two_steps": (sqrt_square, nine, 81.0, 2),
        "collapsed_unfixed": (abs_metric, _linear_pair(1.3), 5.0, 5_000),
        "not_collapsed": (iv.max_partial_space(), _linear_pair(1.02), 1.0, 500),
        "labels": (labels, _pair(cycle, cycle), "a", 50),
        "broken_t": (sqrt_square, broken_t, 81.0),
        "broken_s": (sqrt_square, broken_s, 729.0),
        "left_carrier": (iv.abs_metric_space(lower=1.0), _linear_pair(2.0), 16.0),
        "dist_fails_first": (late_break, broken_s, 729.0),
        "bad_budget": (abs_metric, nine, 1.0, 1),
        "bad_start": (sqrt_square, nine, -1.0),
    }, calls


ORBIT_ERRORS = {
    "broken_t": (iv.PreimageBroken, "step 0: forward(preimage(81.0)) = 243.0 != 81.0"),
    "broken_s": (iv.PreimageBroken, "step 3: forward(preimage(1.0)) = 3.0 != 1.0"),
    "left_carrier": (iv.PreimageBroken, "step 4: preimage 0.5 left the carrier"),
    "dist_fails_first": (ArithmeticError, "distance failed at 9.0"),
    "bad_budget": (ValueError, "max_steps must be at least 2"),
    "bad_start": (ValueError, "start point -1.0 is outside the carrier"),
    "broken_at_cycle": (iv.PreimageBroken, "step 1: forward(preimage('b')) = 'a' != 'b'"),
}


@pytest.mark.parametrize(
    "case",
    [
        "nine_identity",
        "fixed_at_once",
        "two_steps",
        "collapsed_unfixed",
        "not_collapsed",
        "labels",
        *STALLED,
        "swing",
        "swing_cycle_at_last_step",
        "swing_one_step_after_cycle",
        "signed_zero_revisit",
        *ORBIT_ERRORS,
    ],
)
def test_bound_orbit_loop_matches_the_indexed_loop(case):
    cases, calls = _orbit_cases()
    got = _orbit_outcome(iv.inverse_orbit, *cases[case])
    calls.clear()
    assert got == _orbit_outcome(_indexed_orbit, *cases[case])
    if case in ORBIT_ERRORS:
        assert got == ORBIT_ERRORS[case]
    else:
        assert isinstance(got[-1], iv.Termination)


def test_orbit_parity_cases_reach_every_ending():
    cases, _ = _orbit_cases()
    endings = {
        name: iv.inverse_orbit(*cases[name]).terminated_by
        for name in ("nine_identity", "collapsed_unfixed", "not_collapsed")
    }
    assert endings == {
        "nine_identity": iv.Termination.FIXED_POINT_HIT,
        "collapsed_unfixed": iv.Termination.TOLERANCE_MET,
        "not_collapsed": iv.Termination.MAX_ITERATIONS,
    }


def _same_point(p, q):
    return p is q or (type(p) is float and type(q) is float and p == q and p)


def _counted_preimages(maps, calls):
    def counted(preimage):
        def wrapper(y):
            calls[0] += 1
            return preimage(y)

        return wrapper

    return maps._replace(t_preimage=counted(maps.t_preimage), s_preimage=counted(maps.s_preimage))


def _table_cycles():
    """Permutation orbits on tables, (space, maps, x0, max_steps, period).

    A swap repeats with period 2, a swap against the identity with period
    4, and a 3-cycle on a table with one distance of 1e-13 with period 6;
    its pairs violate R = 1.5 in two of every three steps.  Every state
    recurs from x0 on, since the preimages are bijections.
    """
    swap = iv.permutation_map({"a": "b", "b": "a"})
    half_swap = iv.permutation_map({"a": "b", "b": "a", "c": "c"})
    rotate = iv.permutation_map({"a": "b", "b": "c", "c": "a"})
    labels = ("a", "b", "c")
    two = iv.table_space(("a", "b"), [[0.0, 0.1], [0.1, 3.0]])
    three = iv.table_space(labels, [[0.0, 0.1, 1.0], [0.1, 3.0, 1.0], [1.0, 1.0, 0.0]])
    repro = iv.table_space(labels, [[0.0, 1e-13, 1.0], [1e-13, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return {
        "table_period_2": (two, _pair(swap, swap), "b", 10_001, 2),
        "table_period_4": (three, _pair(half_swap, iv.identity_map()), "b", 10_002, 4),
        "table_period_6": (repro, _pair(rotate, rotate), "c", 10_003, 6),
    }


TABLE_CYCLES = _table_cycles()


def _cycle_case(case):
    if case in TABLE_CYCLES:
        return TABLE_CYCLES[case]
    return (*_orbit_cases()[0][case], 2)


@lru_cache(maxsize=None)
def _reference_trace(case):
    """The case's orbit from the loop that computes every step."""
    case = _cycled_cases()[case] if case in CYCLED else _cycle_case(case)
    return _indexed_orbit(*case[:4])


@pytest.mark.parametrize("case", [*STALLED, *TABLE_CYCLES])
def test_a_stalled_orbit_computes_its_two_step_cycle_once(case):
    # A stalled orbit finds its two-step cycle on the step after it starts;
    # a cycle of period p entered after s steps is found within 3(s + p).
    space, maps, x0, max_steps, period = _cycle_case(case)
    calls = [0]
    trace = iv.inverse_orbit(space, _counted_preimages(maps, calls), x0, max_steps)
    pts = _reference_trace(case).computed_points
    assert len(trace.points) == len(pts) == max_steps + 1
    start = next(i for i in range(len(pts) - period) if _same_point(pts[i + period], pts[i]))
    assert start > 10_000 if case in STALLED else start == 0
    assert trace.period == period
    bound = start + 2 if period == 2 else 3 * (start + period)
    assert calls[0] == len(trace.computed_points) - 1 <= bound
    # `solve` audits the trace: the pairs of its computed points, or one
    # period of pairs if that is more, are evaluated once each.
    dist_calls = [0]

    def counted_dist(x, y):
        dist_calls[0] += 1
        return space.dist(x, y)

    report = iv.audit(
        replace(space, dist=counted_dist),
        maps,
        iv.RLHypothesis(1.001 * space.k_const),
        trace,
    )
    assert report.checked_pairs == max_steps - 1
    assert dist_calls[0] == 2 * max(len(trace.computed_points) - 2, period)


@pytest.mark.parametrize(
    "case, computed",
    [
        ("labels", 14),
        ("signed_zero_revisit", 6),
        ("swing", 2),
        ("swing_cycle_at_last_step", 2),
        ("swing_one_step_after_cycle", 2),
    ],
)
def test_only_a_two_step_cycle_is_repeated(case, computed):
    # Any even period repeats, not only two: the 3-cycle of labels repeats
    # with period 6, found at the checkpoint of step 8 on step 14, and the
    # swing a, b, a from step 1.  A zero that comes back with the other
    # sign is not the same point, so that orbit is computed step by step.
    space, maps, x0, max_steps = _orbit_cases()[0][case]
    calls = [0]
    trace = iv.inverse_orbit(space, _counted_preimages(maps, calls), x0, max_steps)
    assert calls[0] == computed == len(trace.computed_points) - 1
    assert len(trace.points) == max_steps + 1


def _scaling_pair(c):
    """T = c*x and S = x/c, whose preimages round: from some x0 the orbit
    reaches its two-step cycle after a computed step, not at once."""
    return iv.MapPair(lambda x: c * x, lambda x: x / c, lambda y: y / c, lambda y: y * c)


def _cycle_at_the_end(extra):
    """The stalled x/1.3 orbit from 5.0, its budget ending `extra` steps
    after the step that finds its two-step cycle, as a case."""
    space, maps = iv.abs_metric_space(), _linear_pair(1.3)
    found = len(iv.inverse_orbit(space, maps, 5.0, 5_000).computed_points) - 1
    return space, maps, 5.0, found + extra, (found, 2)


def _table_cycle_at(case, max_steps, computed):
    space, maps, x0, _, period = TABLE_CYCLES[case]
    return space, maps, x0, max_steps, (computed, period)


@lru_cache(maxsize=None)
def _cycled_cases():
    """(space, maps, x0, max_steps, expected (computed steps, period)) per case.

    An expected value of True means "period 2 found past step 10,000"."""
    abs_metric = iv.abs_metric_space()
    two_labels = iv.table_space(("a", "b"), [[0, 1], [1, 0]])
    swap = _pair(*[iv.permutation_map({"a": "b", "b": "a"})] * 2)
    tiny_swap = iv.table_space(("a", "b"), [[0, 1e-13], [1e-13, 0]])
    # (positive, 0) and (0, positive) cycle distances: a divergent step on
    # every other ratio, through the tail.
    forward_only = replace(abs_metric, dist=lambda x, y: max(x - y, 0.0))
    backward_only = replace(abs_metric, dist=lambda x, y: max(y - x, 0.0))
    nan_upward = replace(abs_metric, dist=lambda x, y: math.nan if x < y else x - y)
    all_nan = replace(abs_metric, dist=lambda x, y: math.nan)
    # Distances 1, 1, 0 round the 3-cycle: two divergent steps per period.
    repro, rotate, start = TABLE_CYCLES["table_period_6"][:3]
    from_a_only = replace(repro, dist=lambda x, y: 0.0 if x == "a" else 1.0)
    stalled = {
        name: (family(), _linear_pair(c), x0, 75_000, True)
        for name, (family, c, x0) in STALLED.items()
    }
    tables = {
        name: (*case[:4], ({2: 2, 4: 8, 6: 14}[case[4]], case[4]))
        for name, case in TABLE_CYCLES.items()
    }
    return {
        **stalled,
        **tables,
        "swap_cycle_at_step_1": (two_labels, swap, "a", 50, (2, 2)),
        "swap_max_steps_2": (two_labels, swap, "a", 2, (2, 2)),
        "swap_max_steps_3": (two_labels, swap, "a", 3, (2, 2)),
        "tiny_swap_repro": (tiny_swap, swap, "a", DEFAULT_MAX_STEPS, (2, 2)),
        "float_cycle_at_last_step": _cycle_at_the_end(0),
        "float_cycle_one_step_before_end": _cycle_at_the_end(1),
        "float_cycle_two_steps_before_end": _cycle_at_the_end(2),
        "period_4_at_last_step": _table_cycle_at("table_period_4", 8, 8),
        "period_4_one_step_before_end": _table_cycle_at("table_period_4", 9, 8),
        "period_6_at_last_step": _table_cycle_at("table_period_6", 14, 14),
        "period_6_five_steps_before_end": _table_cycle_at("table_period_6", 19, 14),
        "period_6_divergent_twice": (from_a_only, rotate, start, 41, (14, 6)),
        "signed_zeros_do_not_cycle": (abs_metric, _signed_zero_revisit(), 0.0, 6, (6, 0)),
        "asymmetric_positive_then_zero": (forward_only, _scaling_pair(10.0), 5.3, 41, (3, 2)),
        "asymmetric_positive_then_zero_even": (forward_only, _scaling_pair(10.0), 5.3, 40, (3, 2)),
        "asymmetric_zero_then_positive": (backward_only, _scaling_pair(10.0), 5.3, 41, (3, 2)),
        "asymmetric_at_step_1": (backward_only, _scaling_pair(3.0), 1.0, 40, (2, 2)),
        "nan_distances": (nan_upward, _scaling_pair(10.0), 123.456, 33, (3, 2)),
        "all_nan_distances": (all_nan, _scaling_pair(10.0), 5.3, 34, (3, 2)),
    }


CYCLED = list(_cycled_cases())


@lru_cache(maxsize=None)
def _cycled_trace(case):
    """The case's orbit, checked for its expected computed steps and
    period; traces are immutable."""
    space, maps, x0, max_steps, expected = _cycled_cases()[case]
    trace = iv.inverse_orbit(space, maps, x0, max_steps)
    got = (len(trace.computed_points) - 1, trace.period)
    if expected is True:
        assert got[0] > 10_000 and got[1] == 2
    else:
        assert got == expected
    return space, maps, trace


@pytest.mark.parametrize("case", CYCLED)
def test_cycle_aware_cauchy_check_matches_the_whole_pass(case):
    # The whole pass is that of the orbit loop that computes every step.
    space, _, trace = _cycled_trace(case)
    whole = _reference_trace(case).cauchy
    got = trace.cauchy
    assert _bits(got.lambda_hat) == _bits(whole.lambda_hat)
    assert (got.threshold, got.verdict) == (whole.threshold, whole.verdict)
    assert list(map(_bits, got.per_step_ratios)) == list(map(_bits, whole.per_step_ratios))
    assert got.divergent_steps == whole.divergent_steps
    assert len(got.per_step_ratios) == len(trace.successive_distances) - 1
    assert len(got.per_step_ratios.values) <= len(trace.computed_distances)


def test_a_cycled_trace_equals_its_recomputation():
    # Columns compare as stored, so two runs of one orbit give equal and
    # equally hashed traces; a column is not equal to a tuple of its items.
    space, maps, x0, max_steps, _ = TABLE_CYCLES["table_period_6"]
    one, two = (iv.inverse_orbit(space, maps, x0, max_steps) for _ in range(2))
    assert one == two and hash(one) == hash(two)
    assert one.points == two.points != tuple(two.points)
    assert one.points[-1] == tuple(two.points)[-1] == two.computed_points[max_steps % 6]


def test_divergent_steps_grow_through_a_repeated_tail():
    for case, first in (("asymmetric_positive_then_zero", 1), ("asymmetric_zero_then_positive", 0)):
        _, _, trace = _cycled_trace(case)
        assert trace.cauchy.divergent_steps == tuple(range(first, 40, 2))


@pytest.mark.parametrize("limit", [None, 1, 2, 7, 5_000])
@pytest.mark.parametrize("case", CYCLED)
def test_orbit_audit_matches_the_pairwise_audit(case, limit):
    space, maps, trace = _cycled_trace(case)
    hyp = iv.RLHypothesis(1.5)
    got = _audit_outcome(space, maps, hyp, trace, limit)
    pairs = iv.orbit_adjacent_pairs(_reference_trace(case).points)
    assert got == _pairwise_audit(space, maps, hyp, pairs, limit)
    assert got[0] == len(pairs) or len(got[1]) == limit


def test_the_swap_repro_lists_its_one_violation_for_every_pair():
    # T = S = swap on d(a, b) = 1e-13: every pair of the orbit is (b, a).
    space, maps, trace = _cycled_trace("tiny_swap_repro")
    report = iv.audit(space, maps, iv.RLHypothesis(1.5), trace)
    assert report.checked_pairs == len(report.violations) == 9_999
    assert len(set(report.violations)) == 1
    # A limit inside the repeated run stops there, and counts the pairs
    # up to the one that reached it.
    report = iv.audit(space, maps, iv.RLHypothesis(1.5), trace, limit=40)
    assert (report.checked_pairs, len(report.violations)) == (40, 40)


def test_a_stalled_max_partial_orbit_repeats_its_violation():
    # d(p, p) = p on max_partial, so the stalled pair violates R = 1.5.
    space, maps, trace = _cycled_trace("stalled_max_partial")
    report = iv.audit(space, maps, iv.RLHypothesis(1.5), trace)
    tail = len(trace.points) - len(trace.computed_points)
    assert len(report.violations) > tail
    assert len(set(report.violations[-tail - 1 :])) == 1
    # A limit that the prefix does not reach stops inside the repeated run.
    limit = len(report.violations) - tail + 100
    got = _audit_outcome(space, maps, iv.RLHypothesis(1.5), trace, limit)
    pairs = iv.orbit_adjacent_pairs(_reference_trace("stalled_max_partial").points)
    assert got == _pairwise_audit(space, maps, iv.RLHypothesis(1.5), pairs, limit)
    assert len(trace.computed_points) - 1 < got[0] < len(pairs)


def _columns(trace):
    return trace.points, trace.successive_distances, trace.cauchy.per_step_ratios


@pytest.mark.parametrize("case", CYCLED)
def test_cycle_aware_trace_csv_matches_the_row_by_row_writer(tmp_path, case):
    # The reference orbit computes every step, so its columns are written
    # row by row; small chunks end inside and between the periods.
    _, _, trace = _cycled_trace(case)
    write_trace_csv(*_columns(_reference_trace(case)), tmp_path / "rows.csv")
    expected = (tmp_path / "rows.csv").read_bytes()
    assert expected.count(b"\r\n") == len(trace.points) + 1
    for chunk in (report_module.TRACE_CHUNK_ROWS, 3, 5):
        with mock.patch.object(report_module, "TRACE_CHUNK_ROWS", chunk):
            write_trace_csv(*_columns(trace), tmp_path / "cycled.csv")
        assert (tmp_path / "cycled.csv").read_bytes() == expected


@pytest.mark.parametrize("case", CYCLED)
def test_two_process_cycled_trace_csv_matches_the_row_by_row_writer(tmp_path, case, split_traces):
    # The split row is half the computed rows, before the repeated tail of
    # period 2, 4 or 6, which the forked child writes whole.
    _, _, trace = _cycled_trace(case)
    write_trace_csv(*_columns(_reference_trace(case)), tmp_path / "rows.csv")
    expected = (tmp_path / "rows.csv").read_bytes()
    split_traces.clear()
    for chunk in (report_module.TRACE_CHUNK_ROWS, 3, 5):
        with mock.patch.object(report_module, "TRACE_CHUNK_ROWS", chunk):
            write_trace_csv(*_columns(trace), tmp_path / "cycled.csv")
        assert (tmp_path / "cycled.csv").read_bytes() == expected
    assert len(split_traces) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cycled.csv", "rows.csv"]


@pytest.mark.parametrize(
    "case", ["swap_max_steps_3", "period_4_one_step_before_end", "period_6_divergent_twice"]
)
def test_every_row_range_of_a_cycled_trace_is_its_slice_of_the_rows(case):
    # A range may start and end anywhere: in the computed rows, inside a
    # repeated period, or at the last row.
    _, _, trace = _cycled_trace(case)
    points, distances, ratios = _columns(trace)
    whole = []
    report_module._write_rows(whole.append, points, distances, ratios, 0, len(points))
    lines = "".join(whole).splitlines(keepends=True)
    assert len(lines) == len(points)
    with mock.patch.object(report_module, "TRACE_CHUNK_ROWS", 3):
        for lo in range(len(points) + 1):
            for hi in range(lo, len(points) + 1):
                got = []
                report_module._write_rows(got.append, points, distances, ratios, lo, hi)
                assert "".join(got) == "".join(lines[lo:hi]), (lo, hi)


def test_roundtrip_check_names_the_broken_map(sqrt_square):
    f, _ = iv.linear_map(9.0)
    maps = iv.MapPair(f, f, lambda y: y / 9.0, lambda y: y / 3.0, "t9", "s3")
    with pytest.raises(iv.PreimageBroken) as caught:
        check_roundtrip(sqrt_square, maps, [81.0])
    assert str(caught.value) == "map s3: forward(preimage(81.0)) = 243.0 != 81.0"


# ---------------------------------------------------------------------------
# audit_rl
# ---------------------------------------------------------------------------


def test_audit_rl_flags_the_origin_unit_pair(sqrt_square, nine_identity):
    report = iv.audit(
        sqrt_square, nine_identity, iv.RLHypothesis(3.0, 0.0), [(0.0, 1.0)]
    )
    assert not report.passed
    v = report.violations[0]
    assert (v.x, v.y, v.lhs, v.rhs) == (0.0, 1.0, 1.0, 3.0)


def test_audit_rl_passes_on_the_dominated_region(sqrt_square, nine_identity):
    # 9x + y + 6*sqrt(x*y) >= 3x + 3y + 6*sqrt(x*y) exactly when y <= 3x.
    pairs = [(x, y) for x, y in iv.sample_pairs(sqrt_square, 10_000, 1) if y <= 3 * x]
    report = iv.audit(sqrt_square, nine_identity, iv.RLHypothesis(3.0, 0.0), pairs)
    assert report.passed
    assert report.checked_pairs == len(pairs)


def test_audit_rl_scaling_maps_pass_exactly(sqrt_square, quadruple_pair):
    # D(4x, 4y) = (2 sqrt x + 2 sqrt y)**2 = 4 D(x, y), an exact identity.
    report = iv.audit(
        sqrt_square,
        quadruple_pair,
        iv.RLHypothesis(4.0, 0.0),
        iv.Sampled(2000, seed=5),
    )
    assert report.passed


def test_audit_rl_requires_r_above_k(sqrt_square, nine_identity):
    with pytest.raises(ValueError):
        iv.audit(sqrt_square, nine_identity, iv.RLHypothesis(2.0, 0.0), [(1.0, 1.0)])


def test_audit_rl_uses_the_min_residual_term(sqrt_square, nine_identity):
    # Independent evaluation of the coefficient at (x, y) = (1, 1).
    s, m = sqrt_square, nine_identity
    x = y = 1.0
    tx, sy = m.t_forward(x), m.s_forward(y)
    min_term = min(
        iv.d_sharp(s, x, tx),
        iv.d_sharp(s, y, sy),
        iv.d_sharp(s, x, sy),
        iv.d_sharp(s, y, tx),
    )
    assert min_term == 0.0  # d_sharp(y, Sy) = d_sharp(1, 1) = 0
    lhs = s.dist(tx, sy)  # D(9, 1) = 16
    rhs = (3.0 + 5.0 * min_term) * s.dist(x, y)  # 3 * 4 = 12
    assert (lhs, rhs) == (16.0, 12.0)
    report = iv.audit(s, m, iv.RLHypothesis(3.0, 5.0), [(x, y)])
    assert report.passed


def test_audit_rl_with_l_zero_matches_plain_scaling(sqrt_square, nine_identity):
    # With l_const = 0 the accepted pairs are exactly those with
    # dist(Tx, Sy) >= r * dist(x, y).
    from invorbit.numerics import exceeds

    pairs = iv.sample_pairs(sqrt_square, 500, seed=9)
    report = iv.audit(sqrt_square, nine_identity, iv.RLHypothesis(3.0, 0.0), pairs)
    flagged = {(v.x, v.y) for v in report.violations}
    d = sqrt_square.dist
    for x, y in pairs:
        lhs = d(nine_identity.t_forward(x), nine_identity.s_forward(y))
        should_fail = exceeds(3.0 * d(x, y), lhs)
        assert ((x, y) in flagged) == should_fail


def test_audit_limit_caps_collection(sqrt_square, nine_identity):
    report = iv.audit(
        sqrt_square,
        nine_identity,
        iv.RLHypothesis(3.0, 0.0),
        iv.Sampled(10_000, seed=1),
        limit=1,
    )
    assert not report.passed
    assert len(report.violations) == 1


def _audit_outcome(space, maps, hyp, pairs, limit=None):
    report = iv.audit(space, maps, hyp, pairs, limit)
    return (
        report.checked_pairs,
        [(v.x, v.y, _bits(v.lhs), _bits(v.rhs)) for v in report.violations],
        report.passed,
    )


def _pairwise_audit(space, maps, hyp, pairs, limit=None):
    """`audit` called on one pair at a time, so no tail is added as one run: a reference."""
    checked, violations = 0, []
    for pair in pairs:
        if limit is not None and len(violations) >= limit:
            break
        checked += 1
        violations += _audit_outcome(space, maps, hyp, [pair])[1]
    return checked, violations[:limit], not violations


def test_audit_of_repeated_pairs_matches_the_pairwise_audit(sqrt_square, nine_identity):
    hyp = iv.RLHypothesis(3.0, 0.0)
    fail, hold = (0.0, 1.0), (1.0, 1.0)  # (0, 1) violates, (1, 1) holds
    pairs = [fail, fail, fail, hold, hold, fail, (0.0, 1.0 + 2**-52), fail]
    got = _audit_outcome(sqrt_square, nine_identity, hyp, pairs)
    assert got == _pairwise_audit(sqrt_square, nine_identity, hyp, pairs)
    assert len(got[1]) == 6
    # An orbit's pairs repeat with its period of 2, 4 or 6: the outcomes of
    # the last walked period repeat through the tail, and a limit stops
    # inside it.  The reference walks the pairs of every computed step.
    hyp = iv.RLHypothesis(1.5)
    for case in TABLE_CYCLES:
        space, maps, trace = _cycled_trace(case)
        pairs = iv.orbit_adjacent_pairs(_reference_trace(case).points)
        for limit in (None, 5_000):
            got = _audit_outcome(space, maps, hyp, trace, limit)
            assert got == _pairwise_audit(space, maps, hyp, pairs, limit)
    # Two of every three pairs of the 3-cycle violate: the limit is reached
    # far inside the repeated run.
    assert len(trace.computed_points) < got[0] < len(pairs) and len(got[1]) == 5_000


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_audit_limit_stops_inside_a_run(sqrt_square, nine_identity, limit):
    hyp = iv.RLHypothesis(3.0, 0.0)
    pairs = [(1.0, 1.0)] + [(0.0, 1.0)] * 5
    got = _audit_outcome(sqrt_square, nine_identity, hyp, pairs, limit)
    assert got == _pairwise_audit(sqrt_square, nine_identity, hyp, pairs, limit)
    assert got[0] == 1 + limit


# ---------------------------------------------------------------------------
# audit_phi
# ---------------------------------------------------------------------------


def test_audit_phi_compliant_pair(sqrt_square, nine_identity):
    hyp = iv.PhiHypothesis(iv.affine_phi(4.0, 1.0), k_squared=4.0)
    # D(9, 0) = 9 >= (4 + 1) * 1.
    assert iv.audit(sqrt_square, nine_identity, hyp, [(1.0, 0.0)]).passed


def test_audit_phi_violating_pair(sqrt_square, nine_identity):
    hyp = iv.PhiHypothesis(iv.affine_phi(4.0, 1.0), k_squared=4.0)
    report = iv.audit(sqrt_square, nine_identity, hyp, [(6.0, 0.0)])
    v = report.violations[0]
    assert v.lhs == 54.0
    assert v.rhs == pytest.approx(60.0, rel=1e-12)


def test_audit_phi_zero_distance_is_vacuous(sqrt_square, nine_identity):
    hyp = iv.PhiHypothesis(iv.affine_phi(4.0, 1.0), k_squared=4.0)
    report = iv.audit(sqrt_square, nine_identity, hyp, [(0.0, 0.0)])
    assert report.passed and report.checked_pairs == 1


def test_audit_phi_codomain_breach_raises(sqrt_square, nine_identity):
    hyp = iv.PhiHypothesis(iv.affine_phi(1.0, 0.0), k_squared=4.0)
    with pytest.raises(iv.PhiBelowKSquared):
        iv.audit(sqrt_square, nine_identity, hyp, [(1.0, 2.0)])
    # The first pair of a run is evaluated, so the breach still raises.
    with pytest.raises(iv.PhiBelowKSquared):
        iv.audit(sqrt_square, nine_identity, hyp, [(1.0, 2.0)] * 3)


def test_audit_phi_violations_grow_with_phi(sqrt_square, nine_identity):
    # A pointwise larger rate can only shrink the compliant set.
    pairs = iv.sample_pairs(sqrt_square, 400, seed=3)
    small = iv.PhiHypothesis(iv.affine_phi(4.5, 0.0), k_squared=4.0)
    large = iv.PhiHypothesis(iv.affine_phi(4.5, 2.0), k_squared=4.0)
    flagged_small = {
        (v.x, v.y)
        for v in iv.audit(sqrt_square, nine_identity, small, pairs).violations
    }
    flagged_large = {
        (v.x, v.y)
        for v in iv.audit(sqrt_square, nine_identity, large, pairs).violations
    }
    assert flagged_small <= flagged_large


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_reaches_the_common_fixed_point(sqrt_square, nine_identity):
    # 9z = z forces z = 0, and the identity fixes everything; so z = 0.
    report = iv.solve(sqrt_square, nine_identity, iv.RLHypothesis(3.0, 0.0), 81.0)
    assert report.candidate == 0.0
    assert report.t_residual == 0.0
    assert report.s_residual == 0.0
    assert report.certified
    assert report.trace.cauchy.lambda_hat == pytest.approx(4 / 9, abs=1e-9)
    # The global hypothesis gap shows up along the orbit without blocking
    # certification.
    assert not report.hypothesis_audit.passed


def test_solve_scaling_pair_certifies(sqrt_square, quadruple_pair):
    report = iv.solve(sqrt_square, quadruple_pair, iv.RLHypothesis(4.0, 0.0), 1.0)
    assert report.candidate == 0.0
    assert report.certified
    assert report.hypothesis_audit.passed
    assert report.trace.cauchy.lambda_hat == pytest.approx(0.25, abs=1e-12)


def test_solve_identity_pair_is_not_certified(sqrt_square, identity_pair):
    # The expansion inequality is impossible for the identity; the trivial
    # two-point trace cannot certify decay either.
    sampled = iv.audit(
        sqrt_square, identity_pair, iv.RLHypothesis(3.0, 0.0), iv.Sampled(100, seed=2)
    )
    assert not sampled.passed
    report = iv.solve(sqrt_square, identity_pair, iv.RLHypothesis(3.0, 0.0), 2.0)
    assert not report.certified
    assert report.t_residual == 0.0


def test_solve_is_not_certified_on_residuals_alone():
    # T = S = 2x from 5: three steps decay by 0.5, which certifies the
    # Cauchy check, but the candidate 0.625 is not fixed: its residuals
    # d_sharp(z, 2z) = 1.25 fail the gate, so the solve is not certified.
    space = iv.abs_metric_space()
    report = iv.solve(space, _linear_pair(2.0), iv.RLHypothesis(1.5), 5.0, max_steps=3)
    assert report.trace.cauchy.lambda_hat == 0.5
    assert report.trace.cauchy.verdict is iv.CauchyOutcome.CAUCHY_CERTIFIED
    assert report.t_residual == report.s_residual == 1.25 > TOL_FIX
    assert not report.certified


def test_solve_requires_declared_completeness(nine_identity):
    s = iv.sqrt_square_space()
    undeclared = iv.Space(s.carrier, s.dist, s.k_const, s.kind, complete=False)
    with pytest.raises(ValueError):
        iv.solve(undeclared, nine_identity, iv.RLHypothesis(3.0, 0.0), 81.0)


@pytest.mark.parametrize("x0", [0.0, 5.0])
def test_solve_checks_the_hypothesis_when_the_orbit_has_no_adjacent_pair(x0):
    # From 0.0, T = S = 3x stops at once on the common fixed point: the
    # orbit has no adjacent pair to audit, and R = 0.5 <= K is refused still.
    f, p = iv.linear_map(3.0)
    maps = iv.MapPair(f, f, p, p, "linear", "linear")
    assert iv.orbit_adjacent_pairs(iv.inverse_orbit(iv.abs_metric_space(), maps, 0.0).points) == []
    with pytest.raises(ValueError, match="r_const must exceed the space's k_const"):
        iv.solve(iv.abs_metric_space(), maps, iv.RLHypothesis(0.5), x0)


def test_contraction_along_fully_audited_orbit(sqrt_square, quadruple_pair):
    # When the hypothesis holds on every orbit-adjacent pair, successive
    # distances contract by 1/R per step.
    r = 4.0
    report = iv.solve(sqrt_square, quadruple_pair, iv.RLHypothesis(r, 0.0), 1.0)
    assert report.hypothesis_audit.passed
    d = report.trace.successive_distances
    for i in range(1, len(d)):
        assert d[i] <= d[i - 1] / r + 1e-9


def test_residual_zero_without_fixedness_needs_degeneracy():
    # 2 D(a,b) = D(a,a) + D(b,b) makes the diagonal residual vanish even
    # though b != a; the forward evaluation tells the difference.
    s = iv.table_space(("a", "b"), [[1.0, 2.0], [2.0, 3.0]])
    assert iv.check_axioms(s, iv.Exhaustive()).passed
    assert iv.d_sharp(s, "a", "b") == 0.0
    swap = dict(zip("ab", "ba"))
    fwd, pre = iv.permutation_map(swap)
    maps = iv.MapPair(fwd, fwd, pre, pre)
    assert iv.d_sharp(s, "a", maps.t_forward("a")) == 0.0
    assert maps.t_forward("a") != "a"


@pytest.mark.parametrize(
    "hyp, coeff",
    [
        (iv.RLHypothesis(1.5), 1.5),
        (iv.RLHypothesis(1.0), 1.0),
        (iv.PhiHypothesis(lambda t: 5.0, 4.0), 5.0),
    ],
    ids=["rl", "rl_unit", "phi"],
)
def test_expansion_guard_agrees_with_bare_slack_test(hyp, coeff, edge_values):
    # The rhs > lhs guard may only skip pairs the slack test would pass.
    test = expansion_test(hyp, None)
    for dxy, lhs in product(edge_values, repeat=2):
        rhs = coeff * dxy
        vacuous = isinstance(hyp, iv.PhiHypothesis) and dxy <= 0.0
        bare = None if vacuous or not exceeds(rhs, lhs) else rhs
        got = test(0, 1, 0, 1, dxy, lhs)
        assert repr(got) == repr(bare), (dxy, lhs)


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


RESIDUALS = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7e308])
    | st.integers(0, 2**64 - 1).map(_from_bits)
    | st.integers(-(2**53), 2**53)
    | st.booleans()
)


def _residual_test_with_min(r, l, sharp):
    """The residual form of `expansion_test` as it was, with builtin min."""

    def test(x, y, tx, sy, dxy, lhs):
        coeff = r + l * min(sharp(x, tx), sharp(y, sy), sharp(x, sy), sharp(y, tx))
        rhs = coeff * dxy
        return rhs if rhs > lhs and exceeds(rhs, lhs) else None

    return test


def _bits(value):
    return struct.pack("<d", value) if type(value) is float else value


@given(
    st.lists(RESIDUALS, min_size=4, max_size=4),
    st.floats(allow_nan=False, min_value=-2.0, max_value=4.0) | st.just(-0.0),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.just(1.0),
    st.floats() | st.just(1.0),
    st.floats() | st.just(-math.inf),
)
@settings(max_examples=1500, deadline=None, derandomize=True)
@example([math.nan, 1.0, 2.0, 3.0], -0.0, 1.0, 1.0, -math.inf)
@example([1.0, math.nan, 0.5, 3.0], -0.0, 1.0, 1.0, -math.inf)
@example([0.0, -0.0, 1.0, 1.0], -0.0, 1.0, 1.0, -math.inf)
@example([-0.0, 0.0, 1.0, 1.0], -0.0, 1.0, 1.0, -math.inf)
def test_the_residual_minimum_equals_builtin_min(values, r, l, dxy, lhs):
    # The four residuals are read in the order min() read them: x Tx, y Sy,
    # x Sy, y Tx.  At R = -0.0, L = 1 and d(x, y) = 1 the rhs is the
    # minimum itself, bit for bit, so its sign and a nan's place show.
    pairs = [("x", "tx"), ("y", "sy"), ("x", "sy"), ("y", "tx")]
    reads = []

    def sharp(a, b):
        reads.append((a, b))
        return values[pairs.index((a, b))]

    test = expansion_test(iv.RLHypothesis(r, l), sharp)
    reference = _residual_test_with_min(r, l, sharp)
    args = ("x", "y", "tx", "sy", dxy, lhs)
    assert _bits(test(*args)) == _bits(reference(*args))
    assert reads == pairs * 2
    least = min(values)
    got = expansion_test(iv.RLHypothesis(-0.0, 1.0), sharp)("x", "y", "tx", "sy", 1.0, -math.inf)
    if least == least and least > -math.inf:
        assert _bits(got) == _bits(1.0 * least)
    else:
        assert got is None
