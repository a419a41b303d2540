import math
from itertools import permutations, product

import pytest

import invorbit as iv
from invorbit import oracle
from invorbit.oracle import bijection_tables, pair_from_tables


def _abs_table(points):
    matrix = [[abs(a - b) for b in points] for a in points]
    return iv.table_space(points, matrix, k_const=1.0, kind=iv.SpaceKind.B_METRIC)


# ---------------------------------------------------------------------------
# common_fixed_points
# ---------------------------------------------------------------------------


def test_identity_pair_fixes_everything():
    s = _abs_table((0.0, 1.0, 2.0))
    maps = pair_from_tables({p: p for p in s.carrier.points}, {p: p for p in s.carrier.points})
    assert iv.common_fixed_points(s, maps) == {0.0, 1.0, 2.0}


def test_swap_against_identity():
    s = _abs_table((0.0, 1.0, 2.0))
    swap = {0.0: 1.0, 1.0: 0.0, 2.0: 2.0}
    ident = {p: p for p in s.carrier.points}
    maps = pair_from_tables(swap, ident)
    assert iv.common_fixed_points(s, maps) == {2.0}


def test_three_cycle_has_no_fixed_point():
    s = _abs_table((0.0, 1.0, 2.0))
    cycle = {0.0: 1.0, 1.0: 2.0, 2.0: 0.0}
    ident = {p: p for p in s.carrier.points}
    maps = pair_from_tables(cycle, ident)
    assert iv.common_fixed_points(s, maps) == set()


# ---------------------------------------------------------------------------
# audit_theorem_finite
# ---------------------------------------------------------------------------


def test_no_bijection_pair_doubles_a_finite_metric():
    pts = (0.0, 1.0, 2.0)
    s = _abs_table(pts)
    # Independent oracle: brute-force the audit over all 36 ordered pairs.
    holders = 0
    for t_img in permutations(pts):
        t = dict(zip(pts, t_img))
        for s_img in permutations(pts):
            sm = dict(zip(pts, s_img))
            if all(
                abs(t[x] - sm[y]) >= 2.0 * abs(x - y) - 1e-12
                for x, y in product(pts, repeat=2)
            ):
                holders += 1
    assert holders == 0
    audit = iv.audit_theorem_finite(s, iv.RLHypothesis(2.0, 0.0))
    assert audit.instances_checked == 36
    assert audit.hypothesis_holders == 0
    assert audit.counterexamples == ()


def test_two_point_space_audits_all_pairs(two_point):
    audit = iv.audit_theorem_finite(two_point, iv.RLHypothesis(1.5, 0.0))
    assert audit.instances_checked == 4
    assert audit.counterexamples == ()


def test_singleton_with_zero_self_distance_holds_vacuously():
    s = iv.table_space((0,), [[0.0]])
    audit = iv.audit_theorem_finite(s, iv.RLHypothesis(1.5, 0.0))
    assert audit.instances_checked == 1
    assert audit.hypothesis_holders == 1
    assert audit.counterexamples == ()


def test_singleton_with_positive_self_distance_fails_the_hypothesis():
    s = iv.table_space((0,), [[2.0]])
    audit = iv.audit_theorem_finite(s, iv.RLHypothesis(1.5, 0.0))
    assert audit.hypothesis_holders == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_covers_all_ordered_bijection_pairs(n):
    pts = tuple(range(n))
    s = _abs_table(tuple(float(p) for p in pts))
    audit = iv.audit_theorem_finite(s, iv.RLHypothesis(2.0, 0.0))
    assert audit.instances_checked == math.factorial(n) ** 2
    assert len(bijection_tables(pts)) == math.factorial(n)


def test_kernel_caches_bijections_not_pairs():
    # Five points beyond the default cap: 120 bijections are kept, and the
    # 14,400 ordered pairs are walked as they are enumerated.
    s = _abs_table((0.0, 1.0, 2.0, 3.0, 4.0))
    audit = iv.audit_theorem_finite(s, iv.RLHypothesis(2.0, 0.0), n_max=5)
    assert audit.instances_checked == 120**2
    assert len(oracle._bijections(5)) == 120


def test_carrier_size_cap_is_enforced():
    s = _abs_table((0.0, 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(iv.CarrierTooLarge):
        iv.audit_theorem_finite(s, iv.RLHypothesis(2.0, 0.0))


# ---------------------------------------------------------------------------
# cross_validate
# ---------------------------------------------------------------------------


def test_cross_validate_vacuous_on_two_point_space(two_point):
    # No bijection pair expands the positive distances, so the conjunction
    # over passing pairs is empty.
    assert iv.cross_validate(two_point, iv.RLHypothesis(1.5, 0.0))


def test_cross_validate_singleton():
    s = iv.table_space((0,), [[0.0]])
    assert iv.cross_validate(s, iv.RLHypothesis(1.5, 0.0))


def test_cross_validate_agrees_with_enumeration_on_sweep_instances():
    # Every hypothesis holder in a small sweep grid must send the solver to
    # an enumerated common fixed point, from every start.
    for entries in ([[0.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 3.0], [3.0, 1.0]]):
        labels = tuple(range(len(entries)))
        space = iv.table_space(labels, entries)
        if not iv.check_axioms(space, iv.Exhaustive()).passed:
            continue
        assert iv.cross_validate(space, iv.RLHypothesis(1.5, 0.0))


# ---------------------------------------------------------------------------
# falsification_sweep
# ---------------------------------------------------------------------------


def test_small_sweep_finds_no_counterexamples():
    sweep = iv.falsification_sweep(sizes=(1, 2), entries=(0.0, 1.0, 2.0))
    assert sweep.counterexamples == ()
    assert sweep.matrices_checked == 3 + 3 ** 3
    assert sweep.spaces_admitted > 0


def test_sweep_counts_every_instance():
    sweep = iv.falsification_sweep(
        sizes=(2,), entries=(0.0, 1.0), k_values=(1.0,), l_values=(0.0,)
    )
    # Admitted spaces each audit (2!)**2 = 4 bijection pairs for R in
    # {1.5, 2.0}, so 8 instances per space.
    assert sweep.instances_checked == sweep.spaces_admitted * 8


def test_default_sweep_counts_are_pinned():
    sweep = iv.falsification_sweep()
    assert (
        sweep.matrices_checked,
        sweep.spaces_admitted,
        sweep.instances_checked,
        sweep.hypothesis_holders,
        sweep.counterexamples,
    ) == (4164, 2877, 401776, 8, ())


def test_counting_lemma_leaves_only_one_point_holders():
    # Sum of d(Tx, Sy) equals sum of d(x, y) for bijections, so with R > K >= 1
    # no admitted carrier of two or more points has a holder.
    assert iv.falsification_sweep(sizes=(2, 3)).hypothesis_holders == 0
    assert iv.falsification_sweep(sizes=(1,)).hypothesis_holders == 8


# ---------------------------------------------------------------------------
# Enumeration kernel against the reference audit
# ---------------------------------------------------------------------------


def _reference_theorem_audit(space, hyp):
    """The per-instance loop the kernel replaced: build, audit, enumerate."""
    tables = bijection_tables(space.carrier.points)
    zero_pair = oracle.has_zero_distance_pair(space)
    checked = holders = 0
    counterexamples = []
    for t_table in tables:
        for s_table in tables:
            checked += 1
            maps = pair_from_tables(t_table, s_table)
            if not iv.audit(space, maps, hyp, iv.Exhaustive(), limit=1).passed:
                continue
            holders += 1
            fps = iv.common_fixed_points(space, maps)
            if len(fps) != 1 and not zero_pair:
                counterexamples.append(
                    oracle.Counterexample(
                        oracle._freeze(t_table),
                        oracle._freeze(s_table),
                        tuple(sorted(fps, key=repr)),
                    )
                )
    return iv.TheoremAudit(checked, holders, tuple(counterexamples))


def _kernel_verdicts(space, hyps):
    held = {
        (oracle._freeze(h.t_table), oracle._freeze(h.s_table), h.hyp)
        for h in oracle._holders(space, *oracle._tables(space), hyps)
    }
    tables = bijection_tables(space.carrier.points)
    return [
        (oracle._freeze(t), oracle._freeze(s), hyp) in held
        for t in tables
        for s in tables
        for hyp in hyps
    ]


def _reference_verdicts(space, hyps):
    tables = bijection_tables(space.carrier.points)
    maps = [pair_from_tables(t, s) for t in tables for s in tables]
    return [
        iv.audit(space, m, hyp, iv.Exhaustive(), limit=1).passed
        for m in maps
        for hyp in hyps
    ]


def test_kernel_verdicts_match_the_reference_audit():
    # Every symmetric matrix over non-integer entries, admitted or not, so
    # carriers with zero off-diagonal distances supply holders with n >= 2.
    entries = (0.0, 0.7, 2.0)
    holders = 0
    for n in (1, 2, 3):
        labels = tuple(range(n))
        for matrix in oracle._symmetric_matrices(n, entries):
            for k in (1.0, 1.3, 2.0):
                space = iv.table_space(labels, matrix, k_const=k)
                hyps = [iv.RLHypothesis(1.5 * k, l) for l in (0.0, 0.5, 3.0)]
                kernel = _kernel_verdicts(space, hyps)
                assert kernel == _reference_verdicts(space, hyps), (matrix, k)
                holders += sum(kernel)
    assert holders > 0


def test_kernel_rejects_r_not_above_k_like_audit():
    space = iv.table_space((0, 1), [[0.0, 0.7], [0.7, 0.0]], k_const=2.0)
    with pytest.raises(ValueError, match="r_const must exceed"):
        iv.audit_theorem_finite(space, iv.RLHypothesis(2.0, 0.0))


def test_phi_theorem_audit_matches_the_reference():
    space = iv.table_space((0, 1, 2), [[0.0, 0.7, 2.0], [0.7, 0.0, 0.7], [2.0, 0.7, 0.0]])
    for a, b in ((1.5, 0.0), (0.5, 2.0), (4.0, 1.0)):
        hyp = iv.PhiHypothesis(iv.affine_phi(a, b), 1.0)
        assert iv.audit_theorem_finite(space, hyp) == _reference_theorem_audit(space, hyp)
    # All-zero distances make every bijection pair a holder.
    flat = iv.table_space((0, 1, 2), [[0.0] * 3] * 3)
    hyp = iv.PhiHypothesis(iv.affine_phi(2.0, 0.0), 1.0)
    assert iv.audit_theorem_finite(flat, hyp) == _reference_theorem_audit(flat, hyp)
    assert iv.audit_theorem_finite(flat, hyp).hypothesis_holders == 36


def test_phi_floor_breach_is_raised_where_audit_raises_it():
    # phi(0.7) = 0.25 is below the floor 1, phi(2) = 10 is above it.
    hyp = iv.PhiHypothesis(iv.affine_phi(-5.0, 7.5), 1.0)
    # The walk reaches d(0, 1) = 0.7 after the vacuous pair (0, 0): both raise.
    reaching = iv.table_space((0, 1), [[0.0, 0.7], [0.7, 0.0]])
    with pytest.raises(iv.PhiBelowKSquared) as kernel:
        iv.audit_theorem_finite(reaching, hyp)
    with pytest.raises(iv.PhiBelowKSquared) as reference:
        _reference_theorem_audit(reaching, hyp)
    assert str(kernel.value) == str(reference.value)
    # With d(0, 0) = 2 every walk stops at its first pair, which needs
    # d(T0, S0) >= 20: the breach at 0.7 is never evaluated.
    shielded = iv.table_space((0, 1), [[2.0, 0.7], [0.7, 0.0]])
    audit = iv.audit_theorem_finite(shielded, hyp)
    assert audit == _reference_theorem_audit(shielded, hyp)
    assert audit.hypothesis_holders == 0


def test_counterexamples_keep_the_reference_order_and_content():
    # A constant negative distance holds every expansion hypothesis, so
    # every pair with other than one common fixed point is reported.
    space = iv.Space(iv.FiniteCarrier(("b", "a", "c")), lambda x, y: -1.0)
    for hyp in (iv.RLHypothesis(1.5, 0.0), iv.RLHypothesis(2.0, 3.0)):
        audit = iv.audit_theorem_finite(space, hyp)
        assert audit == _reference_theorem_audit(space, hyp)
        assert audit.hypothesis_holders == 36
        # Of the 36 pairs, 9 fix exactly one common point: 3 per point.
        assert len(audit.counterexamples) == 27
