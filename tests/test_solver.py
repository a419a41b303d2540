from itertools import product

import pytest

import invorbit as iv
from invorbit.numerics import exceeds
from invorbit.solver import expansion_violation


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
            assert sqrt_square.points_equal(nine_identity.t_forward(pts[i + 1]), pts[i])
        else:
            assert sqrt_square.points_equal(nine_identity.s_forward(pts[i + 1]), pts[i])
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
    assert trace.points == (7.0, 7.0)
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


def test_solve_requires_declared_completeness(nine_identity):
    s = iv.sqrt_square_space()
    undeclared = iv.Space(s.carrier, s.dist, s.k_const, s.kind, s.name, complete=False)
    with pytest.raises(ValueError):
        iv.solve(undeclared, nine_identity, iv.RLHypothesis(3.0, 0.0), 81.0)


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
    for dxy, lhs in product(edge_values, repeat=2):
        rhs = coeff * dxy
        vacuous = isinstance(hyp, iv.PhiHypothesis) and dxy <= 0.0
        bare = None if vacuous or not exceeds(rhs, lhs) else rhs
        got = expansion_violation(hyp, None, 0, 1, 0, 1, dxy, lhs)
        assert repr(got) == repr(bare), (dxy, lhs)
