import functools
import math
import random
import struct
from dataclasses import replace
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invorbit as iv
from invorbit.numerics import tail_window


# ---------------------------------------------------------------------------
# polygon_bound
# ---------------------------------------------------------------------------


def test_polygon_chain_of_three(sqrt_square):
    # lhs = D(4, 0) = 4; rhs = K*D(0,1) + K*D(1,4) = 2*1 + 2*9 = 20.
    bound = iv.polygon_bound(sqrt_square, [0.0, 1.0, 4.0])
    assert bound.lhs == 4.0
    assert bound.rhs == 20.0
    assert bound.holds


def test_polygon_two_point_chain(sqrt_square):
    bound = iv.polygon_bound(sqrt_square, [1.0, 4.0])
    assert bound.lhs == sqrt_square.dist(4.0, 1.0)
    assert bound.rhs == 2.0 * sqrt_square.dist(1.0, 4.0)
    assert bound.holds


def test_polygon_holds_with_equality_on_two_point_space(two_point):
    # lhs = sigma(0, 0) = 2; rhs = sigma(0,1) + sigma(1,0) = 2.
    bound = iv.polygon_bound(two_point, [0, 1, 0])
    assert bound.lhs == 2.0
    assert bound.rhs == 2.0
    assert bound.holds


def test_polygon_fails_on_a_long_closing_distance():
    # D(c, a) = 10 exceeds D(a, b) + D(b, c) = 2 at K = 1.
    space = iv.table_space(["a", "b", "c"], [[0, 1, 10], [1, 0, 1], [10, 1, 0]], 1.0)
    bound = iv.polygon_bound(space, ["a", "b", "c"])
    assert (bound.lhs, bound.rhs, bound.holds) == (10.0, 2.0, False)


def test_polygon_rejects_single_point(sqrt_square):
    with pytest.raises(ValueError):
        iv.polygon_bound(sqrt_square, [1.0])


def test_polygon_holds_on_random_chains(sqrt_square):
    rng = random.Random(2024)
    for _ in range(2000):
        chain = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(2, 10))]
        assert iv.polygon_bound(sqrt_square, chain).holds


# ---------------------------------------------------------------------------
# geometric_cauchy_check
# ---------------------------------------------------------------------------


def test_orbit_distance_pattern_certifies():
    # Ratios of (16/9, 4/9, 16/81, 4/81) are 1/4, 4/9, 1/4; the max is 4/9.
    distances = [16 / 9, 4 / 9, 16 / 81, 4 / 81]
    ratios = [distances[i + 1] / distances[i] for i in range(3)]
    assert max(ratios) == pytest.approx(4 / 9, abs=1e-15)
    verdict = iv.geometric_cauchy_check(distances, k_const=2.0)
    assert verdict.lambda_hat == pytest.approx(4 / 9, abs=1e-12)
    assert verdict.verdict is iv.CauchyOutcome.CAUCHY_CERTIFIED


def test_ratio_at_threshold_is_inconclusive():
    verdict = iv.geometric_cauchy_check([1.0, 0.6, 0.36], k_const=2.0)
    assert verdict.lambda_hat == 0.6
    assert verdict.verdict is iv.CauchyOutcome.INCONCLUSIVE


def test_collapsed_orbit_certifies():
    verdict = iv.geometric_cauchy_check([0.0, 0.0, 0.0], k_const=5.0)
    assert verdict.lambda_hat == 0.0
    assert verdict.verdict is iv.CauchyOutcome.CAUCHY_CERTIFIED
    assert not verdict.divergent_steps


def test_negative_distance_rejected():
    with pytest.raises(iv.NegativeDistance):
        iv.geometric_cauchy_check([1.0, -0.5], k_const=1.0)


def test_divergent_step_is_flagged():
    verdict = iv.geometric_cauchy_check([0.0, 1.0, 0.5], k_const=1.0)
    assert verdict.divergent_steps == (0,)
    assert math.isinf(verdict.lambda_hat)
    assert verdict.verdict is iv.CauchyOutcome.INCONCLUSIVE


def test_noise_floor_excludes_collapsed_tail():
    distances = [1.0, 0.25, 1e-14, 9e-15]
    noisy = iv.geometric_cauchy_check(distances, k_const=2.0)
    assert noisy.verdict is iv.CauchyOutcome.INCONCLUSIVE  # 0.9 ratio at the tail
    floored = iv.geometric_cauchy_check(distances, k_const=2.0, noise_floor=1e-10)
    assert floored.lambda_hat == 0.25
    assert floored.verdict is iv.CauchyOutcome.CAUCHY_CERTIFIED


@given(
    st.floats(min_value=1e-6, max_value=0.499),
    st.integers(min_value=3, max_value=40),
)
@settings(max_examples=150, deadline=None)
def test_synthetic_geometric_decay_is_recovered(lam, length):
    distances = [1.0]
    for _ in range(length):
        distances.append(distances[-1] * lam)
    verdict = iv.geometric_cauchy_check(distances, k_const=2.0)
    assert abs(verdict.lambda_hat - lam) <= 1e-12
    assert verdict.verdict is iv.CauchyOutcome.CAUCHY_CERTIFIED


@given(st.floats(min_value=0.5, max_value=0.99))
@settings(max_examples=80, deadline=None)
def test_slow_decay_stays_inconclusive(lam):
    distances = [1.0]
    for _ in range(20):
        distances.append(distances[-1] * lam)
    verdict = iv.geometric_cauchy_check(distances, k_const=2.0)
    assert verdict.verdict is iv.CauchyOutcome.INCONCLUSIVE


# ---------------------------------------------------------------------------
# limit_sandwich_check
# ---------------------------------------------------------------------------


def test_sandwich_around_unit_point(sqrt_square):
    # D(x_n, 1) = (1 + sqrt(x_n))**2 tends to 1 = D(0, 1); bounds [0.5, 2].
    seq = [4.0 / 9.0 ** n for n in range(60)]
    [bounds] = iv.limit_sandwich_check(sqrt_square, seq, 0.0, [1.0], tol=1e-6)
    assert bounds.lower == 0.5
    assert bounds.upper == 2.0
    assert bounds.estimate == pytest.approx(1.0, abs=1e-4)
    assert bounds.holds


def test_sandwich_degenerate_at_origin(sqrt_square):
    seq = [4.0 / 9.0 ** n for n in range(60)]
    [bounds] = iv.limit_sandwich_check(sqrt_square, seq, 0.0, [0.0], tol=1e-6)
    assert bounds.lower == 0.0 and bounds.upper == 0.0
    assert bounds.holds


def test_sandwich_harmonic_sequence(sqrt_square):
    # D(x_n, 4) = (2 + sqrt(1/n))**2 tends to 4; bounds [2, 8].
    seq = [1.0 / n for n in range(1, 5001)]
    [bounds] = iv.limit_sandwich_check(sqrt_square, seq, 0.0, [4.0], tol=1e-3)
    assert bounds.lower == 2.0 and bounds.upper == 8.0
    assert bounds.estimate == pytest.approx(4.0, abs=0.2)
    assert bounds.holds


def test_sandwich_gate_requires_vanishing_tail(sqrt_square):
    # The entry condition is D(x_n, x) -> 0, stronger than convergence:
    # a constant sequence at 1 has D(x_n, 1) = 4 forever.
    with pytest.raises(iv.HypothesisNotMet):
        iv.limit_sandwich_check(sqrt_square, [1.0] * 50, 1.0, [2.0], tol=1e-6)


def test_sandwich_holds_for_sampled_targets(sqrt_square):
    seq = [4.0 / 9.0 ** n for n in range(60)]
    ys = iv.sample_points(sqrt_square, 50, seed=11)
    bounds = iv.limit_sandwich_check(sqrt_square, seq, 0.0, ys, tol=1e-6)
    assert len(bounds) == 50
    assert all(b.holds for b in bounds)


def _per_y_sandwich(space, seq, x, y, tol):
    """The unbatched check, one target at a time, as a reference."""
    d = space.dist
    tail = seq[len(seq) - tail_window(len(seq)) :]
    worst = max(d(p, x) for p in tail)
    if worst >= tol:
        raise iv.HypothesisNotMet(f"tail distance {worst}")
    estimate = math.fsum(d(p, y) for p in tail) / len(tail)
    lower = d(x, y) / space.k_const
    upper = space.k_const * d(x, y)
    return iv.SandwichBounds(lower, estimate, upper, lower - tol <= estimate <= upper + tol)


@pytest.mark.parametrize("k_const", [2.0, 1.0])
def test_batched_sandwich_matches_per_y_checks(k_const):
    # At K = 1 the bound [D(x,y), D(x,y)] leaves no room for the harmonic
    # tail's bias, so the batch mixes held and failed targets.
    space = iv.sqrt_square_space(k_const)
    ys = list(iv.sample_points(space, 40, seed=7)) + [0.0]
    geometric = [4.0 / 9.0 ** n for n in range(60)]
    harmonic = [1.0 / n for n in range(1, 5001)]
    verdicts = set()
    for seq, tol in ((geometric, 1e-6), (harmonic, 1e-3)):
        batched = iv.limit_sandwich_check(space, seq, 0.0, ys, tol)
        assert batched == [_per_y_sandwich(space, seq, 0.0, y, tol) for y in ys]
        verdicts.update(b.holds for b in batched)
    assert verdicts == ({True} if k_const == 2.0 else {True, False})


def test_batched_sandwich_gate_raises_like_the_per_y_check(sqrt_square):
    ys = list(iv.sample_points(sqrt_square, 10, seed=3))
    with pytest.raises(iv.HypothesisNotMet):
        _per_y_sandwich(sqrt_square, [1.0] * 50, 1.0, ys[0], 1e-6)
    with pytest.raises(iv.HypothesisNotMet):
        iv.limit_sandwich_check(sqrt_square, [1.0] * 50, 1.0, ys, tol=1e-6)


# ---------------------------------------------------------------------------
# Limit uniqueness on finite spaces
# ---------------------------------------------------------------------------


def test_vanishing_limits_are_unique_on_finite_spaces():
    # At most one point can absorb a sequence with D(x_n, x) -> 0.
    pts = (0.0, 1.0, 2.5)
    metric = replace(iv.abs_metric_space(), carrier=iv.FiniteCarrier(pts))
    for target in pts:
        seq = [target] * 20
        absorbing = [
            x
            for x in pts
            if max(metric.dist(p, x) for p in seq[-8:]) < 1e-9
        ]
        assert absorbing == [target]
    # Positive self-distances block absorption entirely.
    sigma = iv.two_point_sigma_space()
    for target in (0, 1):
        seq = [target] * 20
        absorbing = [
            x
            for x in (0, 1)
            if max(sigma.dist(p, x) for p in seq[-8:]) < 1e-9
        ]
        assert absorbing == []


# ---------------------------------------------------------------------------
# Parity with the loops the checks replaced
# ---------------------------------------------------------------------------


def _bits(value):
    """A float as its exact bits, so -0.0 against 0.0 and nan compare."""
    return struct.pack("<d", value).hex() if isinstance(value, float) else value


def _whole_tail_sandwich(space, seq, x, ys, tol):
    """The sandwich check that evaluates every tail point, as a reference;
    it reads a column's tail point by point."""
    d = space.dist
    k = space.k_const
    w = tail_window(len(seq))
    tail = seq[len(seq) - w :]
    worst = max(map(d, tail, repeat(x)))
    if worst >= tol:
        raise iv.HypothesisNotMet(
            f"tail distance to the limit point is {worst}, not below {tol}"
        )
    out = []
    for y in ys:
        estimate = math.fsum(map(d, tail, repeat(y))) / len(tail)
        dxy = d(x, y)
        lower = dxy / k
        upper = k * dxy
        holds = (lower - tol) <= estimate <= (upper + tol)
        out.append(iv.SandwichBounds(lower, estimate, upper, holds))
    return out


def _sandwich_outcome(check, space, seq, x, ys, tol):
    try:
        bounds = check(space, seq, x, ys, tol)
    except iv.HypothesisNotMet as exc:
        return "HypothesisNotMet", str(exc)
    return [tuple(map(_bits, (b.lower, b.estimate, b.upper, b.holds))) for b in bounds]


def _linear_orbit(space, c, x0, max_steps, s_factor=None):
    t, t_pre = iv.linear_map(c)
    s, s_pre = iv.linear_map(c if s_factor is None else s_factor)
    return iv.inverse_orbit(space, iv.MapPair(t, s, t_pre, s_pre), x0, max_steps)


def _sign_space():
    # A pseudometric that reads only the sign bit, so it tells -0.0 from 0.0.
    return iv.Space(
        iv.IntervalCarrier(-1.0, 1.0),
        lambda x, y: abs(math.copysign(1.0, x) - math.copysign(1.0, y)),
    )


def _swap_case(max_steps):
    """T = S = swap on a two-label table whose labels a tail average tells
    apart: the orbit repeats from point 2 on, and the tail sits within the
    tolerance of "a"."""
    space = iv.table_space(("a", "b"), [[0.0, 0.1], [0.1, 3.0]])
    swap = iv.permutation_map({"a": "b", "b": "a"})
    trace = iv.inverse_orbit(space, iv.MapPair(swap[0], swap[0], swap[1], swap[1]), "b", max_steps)
    assert (len(trace.computed_points), trace.period) == (3, 2)
    return (space, trace.points, "a", ("a", "b"), 0.2)


@functools.lru_cache(maxsize=None)
def _sandwich_cases():
    abs_metric = iv.abs_metric_space()
    max_partial = iv.max_partial_space()
    zeros = [0.0, -0.0] * 40
    nan = math.nan
    periodic = iv.table_space(
        (0, 1, 2, 3),
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
        kind=iv.SpaceKind.B_METRIC,
    )
    cycle = iv.permutation_map({0: 1, 1: 2, 2: 3, 3: 0})
    ident = iv.permutation_map({i: i for i in range(4)})
    # S = identity doubles every point, so the orbit's period is eight
    # steps, found at the checkpoint of step 8 on step 16.
    periodic_orbit = iv.inverse_orbit(
        periodic, iv.MapPair(cycle[0], ident[0], cycle[1], ident[1]), 0, max_steps=203
    )
    assert (len(periodic_orbit.computed_points), periodic_orbit.period) == (17, 8)
    # T = S = x / 1.02 stalls on one subnormal point after about 37.7k steps,
    # so this tail holds distinct points, then one point repeated: the
    # window straddles the start of the orbit's cycle.
    stalled = _linear_orbit(abs_metric, 1.02, 1.0, 45_000)
    tail = stalled.points[-tail_window(len(stalled.points)) :]
    assert tail[0] != tail[-1] == tail[-5_000]
    assert len(stalled.points) - len(tail) < len(stalled.computed_points) - 1
    unstalled = _linear_orbit(abs_metric, 1.02, 1.0, 2_000)
    assert unstalled.period == 0
    # T = 2x and S = x / 2 swing between 1.0 and 0.5 from point 2 on; with
    # 29 steps the window of eight points starts 20 points past the cycle.
    swing = _linear_orbit(abs_metric, 2.0, 1.0, 29, s_factor=0.5)
    assert (len(swing.computed_points), swing.period) == (3, 2)
    # T = 10x and S = x / 10 round once before their cycle: point 2 is not
    # point 0, and the cycle starts at point 3 of a window of all 8 points.
    scaling = iv.MapPair(
        lambda x: 10.0 * x, lambda x: x / 10.0, lambda y: y / 10.0, lambda y: 10.0 * y
    )
    rounded = iv.inverse_orbit(abs_metric, scaling, 5.3, 7)
    assert len(rounded.computed_points) == 4 and rounded.points[2] != rounded.points[0]
    harmonic = [1.0 / n for n in range(1, 5001)]
    ys = list(iv.sample_points(abs_metric, 26, seed=1)) + [0.0, -0.0, nan]
    one_nan = float("nan")
    stalled_args = (stalled.points, tail[-1], ys, 1e-6)
    return {
        "stalled_abs_metric": (abs_metric, *stalled_args),
        "stalled_max_partial": (max_partial, *stalled_args),
        "signed_zeros_max_partial": (max_partial, zeros, 0.0, [0.0, -0.0, 1.0], 1e-6),
        "signed_zeros_max_partial_neg": (max_partial, zeros[1:], -0.0, [0.0, -0.0], 1e-6),
        "signed_zeros_by_sign": (_sign_space(), zeros, 0.0, [0.0, -0.0, 0.5], 3.0),
        "signed_zeros_gate": (_sign_space(), zeros, 0.0, [0.0], 1.0),
        "nan_points": (abs_metric, [1.0, nan, nan, one_nan, one_nan, 0.0] * 5, 0.0, ys, 1e-6),
        "periodic_table": (periodic, periodic_orbit.points, 0, (0, 1, 2, 3), 5.0),
        "periodic_table_gate": (periodic, periodic_orbit.points, 0, (0, 1), 1.0),
        "harmonic": (abs_metric, harmonic, 0.0, ys, 1e-3),
        "no_stall": (abs_metric, unstalled.points, unstalled.points[-1], ys, 1.0),
        "no_stall_gate": (abs_metric, unstalled.points, 1.0, ys, 1e-6),
        # Windows wholly past the cycle start, an even and an odd number of
        # points past it, and one that starts on the cycle's first period.
        "swap_even_phase": _swap_case(40),
        "swap_odd_phase": _swap_case(41),
        "swap_window_at_cycle": _swap_case(8),
        "swing_past_cycle": (abs_metric, swing.points, 1.0, ys, 1.0),
        "rounded_before_cycle": (abs_metric, rounded.points, 0.53, ys, 10.0),
    }


SANDWICH_CASES = [
    "stalled_abs_metric",
    "stalled_max_partial",
    "signed_zeros_max_partial",
    "signed_zeros_max_partial_neg",
    "signed_zeros_by_sign",
    "signed_zeros_gate",
    "nan_points",
    "periodic_table",
    "periodic_table_gate",
    "harmonic",
    "no_stall",
    "no_stall_gate",
    "swap_even_phase",
    "swap_odd_phase",
    "swap_window_at_cycle",
    "swing_past_cycle",
    "rounded_before_cycle",
]


@pytest.mark.parametrize("case", SANDWICH_CASES)
def test_sandwich_runs_match_the_whole_tail(case):
    # An orbit's case passes the trace's points, a column whose repeated
    # tail the check reads once; every other case is read point by point.
    args = _sandwich_cases()[case]
    got = _sandwich_outcome(iv.limit_sandwich_check, *args)
    assert got == _sandwich_outcome(_whole_tail_sandwich, *args)
    if case.endswith("gate"):
        assert got[0] == "HypothesisNotMet"
    else:
        assert isinstance(got, list)


def test_a_period_read_out_of_phase_changes_the_estimate():
    # The odd window of the swap orbit holds one more "a" than "b", so
    # repeating its period one step out of phase, as the orbit one step
    # further on reads it, changes the tail average.
    space, seq, x, _, tol = _sandwich_cases()["swap_odd_phase"]
    assert tail_window(len(seq)) % 2 == 1
    (bound,) = iv.limit_sandwich_check(space, seq, x, ["b"], tol)
    assert bound.estimate == (6 * 0.1 + 5 * 3.0) / 11
    (shifted,) = _whole_tail_sandwich(space, seq[1:] + seq[-2:-1], x, ["b"], tol)
    assert shifted.estimate == (5 * 0.1 + 6 * 3.0) / 11 != bound.estimate


def test_signed_zero_runs_stay_apart():
    # Grouping 0.0 with -0.0 would read only 0.0 and estimate 0.
    (bound,) = iv.limit_sandwich_check(_sign_space(), [0.0, -0.0] * 4, 0.0, [0.0], 3.0)
    assert bound.estimate == 1.0


def test_equal_float_subclass_points_are_read_one_by_one(tagged_float):
    # Every tail point is 1.0 with a tag of its own, and the distance reads
    # the tags: points of equal value are not the same point, so each one
    # is read.
    space = iv.Space(
        iv.IntervalCarrier(0.0, 2.0),
        lambda x, y: abs(x - y) + abs(getattr(x, "tag", 0.0) - getattr(y, "tag", 0.0)),
    )
    seq = [tagged_float(1.0, 1e-9 * (i % 7)) for i in range(1, 61)]
    args = (space, seq, 1.0, [0.0, 2.0], 1e-6)
    got = _sandwich_outcome(iv.limit_sandwich_check, *args)
    assert got == _sandwich_outcome(_whole_tail_sandwich, *args)
    tail = seq[-tail_window(len(seq)) :]
    (bound, _) = iv.limit_sandwich_check(*args)
    assert bound.estimate == math.fsum(space.dist(p, 0.0) for p in tail) / len(tail)
    assert bound.estimate != space.dist(tail[0], 0.0)


def _two_index_cauchy(successive_distances, k_const, noise_floor=0.0):
    """The decay check that indexes both distances of each step, as a reference."""
    for v in successive_distances:
        if v < 0:
            raise iv.NegativeDistance(f"negative successive distance {v}")
    ratios = []
    divergent = []
    lam = 0.0
    for i in range(len(successive_distances) - 1):
        d0 = successive_distances[i]
        d1 = successive_distances[i + 1]
        if d0 == 0.0:
            r = 0.0 if d1 == 0.0 else math.inf
            if d1 > 0.0:
                divergent.append(i)
        else:
            r = d1 / d0
        ratios.append(r)
        if max(d0, d1) > noise_floor and r > lam:
            lam = r
    threshold = 1.0 / k_const
    outcome = (
        iv.CauchyOutcome.CAUCHY_CERTIFIED
        if lam < threshold
        else iv.CauchyOutcome.INCONCLUSIVE
    )
    return iv.CauchyVerdict(lam, threshold, outcome, tuple(ratios), tuple(divergent))


def _cauchy_bits(verdict):
    return (
        _bits(verdict.lambda_hat),
        _bits(verdict.threshold),
        verdict.verdict,
        tuple(map(_bits, verdict.per_step_ratios)),
        verdict.divergent_steps,
    )


FLOOR = 1e-10
CAUCHY_CASES = {
    "zeros": [0.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.0],
    "signed_zeros": [-0.0, 0.0, -0.0, 1.0, -0.0, 0.25, 0.0, -0.0],
    "nan": [1.0, math.nan, 0.5, math.nan, math.nan, 0.25, 0.0, math.nan],
    "inf": [math.inf, 1.0, math.inf, math.inf, 0.0, math.inf, 2.0],
    # The last step's larger distance sits exactly at the floor, and its
    # ratio 1 is the largest: only a strict floor test leaves it out.
    "at_noise_floor": [1.0, 0.5, FLOOR, FLOOR, 0.5 * FLOOR, FLOOR],
    "ratio_ties": [8.0, 4.0, 2.0, 1.0, 0.5, 1e-11, 5e-12, 2.5e-12],
    "subnormal": [1e-300, 5e-324, 5e-324, 1e-323, 0.0, 5e-324],
}


@pytest.mark.parametrize("floor", [0.0, FLOOR, 0.5])
@pytest.mark.parametrize("k_const", [1.0, 2.0])
@pytest.mark.parametrize("case", list(CAUCHY_CASES))
def test_one_pass_cauchy_matches_the_two_index_loop(case, k_const, floor):
    distances = CAUCHY_CASES[case]
    got = iv.geometric_cauchy_check(distances, k_const, noise_floor=floor)
    assert _cauchy_bits(got) == _cauchy_bits(_two_index_cauchy(distances, k_const, floor))


@pytest.mark.parametrize(
    "distances, first_negative",
    [
        ([-1.0, 0.5, -0.25], -1.0),
        ([1.0, 0.5, 0.25, -0.25], -0.25),
        ([1.0, 0.0, -0.5, -2.0], -0.5),
        ([0.0, -5e-324, 1.0], -5e-324),
        ([-math.inf, math.nan], -math.inf),
    ],
    ids=["first", "last", "after_zero", "subnormal_after_zero", "negative_infinity"],
)
def test_the_first_negative_distance_raises(distances, first_negative):
    with pytest.raises(iv.NegativeDistance) as got:
        iv.geometric_cauchy_check(distances, 1.0)
    with pytest.raises(iv.NegativeDistance) as want:
        _two_index_cauchy(distances, 1.0)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"negative successive distance {first_negative}"


def test_nan_and_negative_zero_distances_do_not_raise():
    distances = [math.nan, -0.0, math.nan, 0.0, -0.0]
    got = iv.geometric_cauchy_check(distances, 1.0)
    assert _cauchy_bits(got) == _cauchy_bits(_two_index_cauchy(distances, 1.0))


def test_a_step_at_the_noise_floor_is_left_out():
    verdict = iv.geometric_cauchy_check(CAUCHY_CASES["at_noise_floor"], 1.0, noise_floor=FLOOR)
    assert verdict.lambda_hat == 0.5
    assert verdict.per_step_ratios[2] == 1.0


@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, FLOOR, 0.5, 1.0, 2.0, math.inf, math.nan]),
        min_size=2,
        max_size=12,
    ),
    st.sampled_from([0.0, FLOOR, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_cauchy_matches_on_edge_values(distances, floor):
    got = iv.geometric_cauchy_check(distances, 1.0, noise_floor=floor)
    assert _cauchy_bits(got) == _cauchy_bits(_two_index_cauchy(distances, 1.0, floor))
