import math
import random

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
    ys = iv.sample_points(space, 40, seed=7) + [0.0]
    geometric = [4.0 / 9.0 ** n for n in range(60)]
    harmonic = [1.0 / n for n in range(1, 5001)]
    verdicts = set()
    for seq, tol in ((geometric, 1e-6), (harmonic, 1e-3)):
        batched = iv.limit_sandwich_check(space, seq, 0.0, ys, tol)
        assert batched == [_per_y_sandwich(space, seq, 0.0, y, tol) for y in ys]
        verdicts.update(b.holds for b in batched)
    assert verdicts == ({True} if k_const == 2.0 else {True, False})


def test_batched_sandwich_gate_raises_like_the_per_y_check(sqrt_square):
    ys = iv.sample_points(sqrt_square, 10, seed=3)
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
    metric = iv.restrict_to_points(iv.abs_metric_space(), pts)
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
