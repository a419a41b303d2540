import math
from dataclasses import replace
from itertools import islice, permutations, product

import pytest

import invorbit as iv
from invorbit import oracle
from invorbit.oracle import pair_from_tables
from invorbit.solver import expansion_test
from invorbit.spaces import table_admitted_k_values


def _abs_table(points):
    matrix = [[abs(a - b) for b in points] for a in points]
    return iv.table_space(points, matrix, k_const=1.0, kind=iv.SpaceKind.B_METRIC)


def _flat_table(points):
    """All distances zero: every bijection pair holds every hypothesis."""
    return iv.table_space(points, [[0.0] * len(points)] * len(points))


def _every_pair(dist):
    """Every (T, S) on a table: the survivors of a test that no pair breaks."""
    return oracle._survivors(dist, lambda *pair: None)


def _kernel_holders(space, hyps):
    pts = space.carrier.points
    dist = [[space.dist(x, y) for y in pts] for x in pts]
    return oracle._holders(space, dist, oracle._residuals(dist), hyps, _every_pair(dist))


def _kernel_theorem_audit(space, hyp):
    """(instances, holders, counterexamples) of one space, as the sweep
    counts them from the enumeration kernel."""
    holders = list(_kernel_holders(space, [hyp]))
    counterexamples = tuple(
        oracle._counterexample(h) for h in holders if len(h.fixed_points) != 1
    )
    instances = len(oracle._bijections(len(space.carrier.points))) ** 2
    return instances, len(holders), counterexamples


# ---------------------------------------------------------------------------
# Fix(T) and Fix(S) in the kernel
# ---------------------------------------------------------------------------


def _holder_fixed_points(t_table, s_table):
    """The common fixed points the kernel reports for (T, S)."""
    flat = _flat_table((0.0, 1.0, 2.0))
    for h in _kernel_holders(flat, [iv.RLHypothesis(1.5, 0.0)]):
        if (h.t_table, h.s_table) == (t_table, s_table):
            return set(h.fixed_points)
    raise AssertionError("the pair was not enumerated")


def test_identity_pair_fixes_everything():
    ident = {p: p for p in (0.0, 1.0, 2.0)}
    assert _holder_fixed_points(ident, ident) == {0.0, 1.0, 2.0}


def test_swap_against_identity():
    swap = {0.0: 1.0, 1.0: 0.0, 2.0: 2.0}
    ident = {p: p for p in (0.0, 1.0, 2.0)}
    assert _holder_fixed_points(swap, ident) == {2.0}


def test_three_cycle_has_no_fixed_point():
    cycle = {0.0: 1.0, 1.0: 2.0, 2.0: 0.0}
    ident = {p: p for p in (0.0, 1.0, 2.0)}
    assert _holder_fixed_points(cycle, ident) == set()


# ---------------------------------------------------------------------------
# The kernel on one space
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
    assert _kernel_theorem_audit(s, iv.RLHypothesis(2.0, 0.0)) == (36, 0, ())


def test_two_point_space_audits_all_pairs(two_point):
    instances, _, counterexamples = _kernel_theorem_audit(
        two_point, iv.RLHypothesis(1.5, 0.0)
    )
    assert instances == 4
    assert counterexamples == ()


def test_singleton_with_zero_self_distance_holds_vacuously():
    s = iv.table_space((0,), [[0.0]])
    assert _kernel_theorem_audit(s, iv.RLHypothesis(1.5, 0.0)) == (1, 1, ())


def test_singleton_with_positive_self_distance_fails_the_hypothesis():
    s = iv.table_space((0,), [[2.0]])
    assert _kernel_theorem_audit(s, iv.RLHypothesis(1.5, 0.0))[1] == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_covers_all_ordered_bijection_pairs(n):
    s = _flat_table(tuple(float(p) for p in range(n)))
    held = [
        (oracle._freeze(h.t_table), oracle._freeze(h.s_table))
        for h in _kernel_holders(s, [iv.RLHypothesis(2.0, 0.0)])
    ]
    assert len(held) == len(set(held)) == math.factorial(n) ** 2


def test_kernel_caches_bijections_not_pairs():
    # Five points beyond the default cap: 120 bijections are kept, and the
    # 14,400 ordered pairs are walked as they are enumerated.
    flat = _flat_table(tuple(range(5)))
    holders = _kernel_holders(flat, [iv.RLHypothesis(2.0, 0.0)])
    first = next(holders)
    assert first.t_table == first.s_table == {x: x for x in range(5)}
    assert len(oracle._bijections(5)) == 120
    s = _abs_table((0.0, 1.0, 2.0, 3.0, 4.0))
    assert _kernel_theorem_audit(s, iv.RLHypothesis(2.0, 0.0)) == (120**2, 0, ())


def test_carrier_size_cap_is_enforced():
    # One all-zero matrix, so a sweep without the cap ends at once.
    with pytest.raises(iv.CarrierTooLarge, match="sweep size 5 exceeds n_max=4"):
        iv.falsification_sweep(sizes=(5,), entries=(0.0,))


# U = 2**3 matrices * (2!)**2 pairs * 1 K * 2 R * 1 L = 64 instances.
SMALL_GRID = dict(sizes=(2,), entries=(0.0, 1.0), k_values=(1.0,), l_values=(0.0,))


def test_sweep_work_is_bounded_before_the_walk(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SWEEP_INSTANCES", 63)
    with pytest.raises(
        iv.CarrierTooLarge, match="the sweep grid holds up to 64 instances, above the limit of 63"
    ):
        iv.falsification_sweep(**SMALL_GRID)
    monkeypatch.setattr(oracle, "MAX_SWEEP_INSTANCES", 64)
    assert iv.falsification_sweep(**SMALL_GRID).instances_checked == 32


def test_sweep_work_bound_refuses_an_absurd_size_without_counting():
    with pytest.raises(
        iv.CarrierTooLarge, match=r"sweep size 1000000000 has \(1000000000!\)\*\*2 map pairs"
    ):
        iv.falsification_sweep(sizes=(10**9,), n_max=10**9)


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_sweep_rejects_non_finite_entries(entry):
    with pytest.raises(ValueError, match="sweep entries must be finite"):
        iv.falsification_sweep(sizes=(1,), entries=(0.0, entry))


def test_sweep_rejects_an_empty_carrier():
    with pytest.raises(ValueError, match="sweep sizes must be at least 1"):
        iv.falsification_sweep(sizes=(1, 0))


def test_sweep_rejects_an_r_that_rounds_onto_k_before_the_walk(monkeypatch):
    # K + 0.5 rounds onto K = 1e308; the grid is refused before any table
    # is built.
    monkeypatch.setattr(oracle, "table_space", None)
    with pytest.raises(ValueError, match=r"sweep R = 1e\+308 does not exceed K = 1e\+308"):
        iv.falsification_sweep(entries=(0.0, 1.0), k_values=(1.0, 1e308))


BAD_GRIDS = {
    "negative_entry": (dict(entries=(1.0, -1.0)), "matrix entries must be nonnegative"),
    "k_below_one": (dict(k_values=(0.5,)), "k_const must be >= 1"),
    # Both at once: the entries are checked first, whatever their order.
    "both": (dict(entries=(1.0, -1.0), k_values=(0.5,)), "matrix entries must be nonnegative"),
}


@pytest.mark.parametrize("name", BAD_GRIDS)
def test_sweep_rejects_a_negative_entry_or_a_k_below_one_before_the_walk(monkeypatch, name):
    # Admission would leave a table with a negative entry unadmitted, not
    # refuse it, so the grid is checked before any table is admitted.
    grid, message = BAD_GRIDS[name]
    monkeypatch.setattr(oracle, "table_admitted_k_values", None)
    monkeypatch.setattr(oracle, "table_space", None)
    with pytest.raises(ValueError, match=message):
        iv.falsification_sweep(**grid)


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


@pytest.mark.parametrize("scale", [1, 1e-13, 1e13, 1e-310, 1e300])
def test_sweep_counts_do_not_depend_on_the_scale(scale):
    # At scale 1 the entries stay ints: the sweep reads them through the
    # table, as floats.
    sweep = iv.falsification_sweep(entries=tuple(scale * e for e in (0, 1, 2, 3)))
    assert (
        sweep.matrices_checked,
        sweep.spaces_admitted,
        sweep.instances_checked,
        sweep.hypothesis_holders,
        sweep.counterexamples,
    ) == (4164, 2877, 401776, 8, ())


def _relabelled(matrix, p):
    """The matrix (M[p(i)][p(j)]): the same space with its labels renamed."""
    n = len(matrix)
    return tuple(tuple(matrix[p[i]][p[j]] for j in range(n)) for i in range(n))


def _upper(matrix):
    n = len(matrix)
    return tuple(matrix[i][j] for i in range(n) for j in range(i, n))


def _first_of_class(matrix):
    """The relabelling of `matrix` with the least upper triangle: the first
    member of its class in the enumeration, for distinct ascending entries."""
    n = len(matrix)
    return min((_relabelled(matrix, p) for p in permutations(range(n))), key=_upper)


def _per_k_admitted(matrix, k_values, kind=iv.SpaceKind.B_METRIC_LIKE):
    """The K that per-K `check_axioms` admits for `matrix`, as a `kind`."""
    labels = tuple(range(len(matrix)))
    return [
        k
        for k in k_values
        if iv.check_axioms(
            iv.table_space(labels, matrix, k_const=k, kind=kind), iv.Exhaustive()
        ).passed
    ]


def test_sweep_admits_like_per_k_check_axioms(monkeypatch):
    # The sweep decides admission without check_axioms, once per
    # relabelling class, from the rows of its first member; it builds a
    # table only for a first member that some K admits, and walks it for
    # exactly the K that per-K check_axioms admits for every member of
    # the class.
    def no_check_axioms(*args):
        raise AssertionError("the sweep called check_axioms")

    admissions, built, walked = {}, [], {}
    admit, table_space, walk = oracle.table_admitted_k_values, oracle.table_space, oracle._walk

    def recording_admit(rows, k_values):
        admissions[rows] = admit(rows, k_values)
        return admissions[rows]

    def recording_table_space(labels, matrix, **kwargs):
        built.append(matrix)
        return table_space(labels, matrix, **kwargs)

    def recording_walk(base, rows, admitted, *args):
        walked[rows] = list(admitted)
        return walk(base, rows, admitted, *args)

    monkeypatch.setattr(oracle, "check_axioms", no_check_axioms)
    monkeypatch.setattr(oracle, "table_admitted_k_values", recording_admit)
    monkeypatch.setattr(oracle, "table_space", recording_table_space)
    monkeypatch.setattr(oracle, "_walk", recording_walk)
    entries, k_values = (0.0, 1.0, 3.0), (1.0, 1.5, 3.0)
    sweep = iv.falsification_sweep(entries=entries, k_values=k_values)
    matrices = [m for n in (1, 2, 3) for m in oracle._symmetric_matrices(n, entries)]
    expected = {m: _per_k_admitted(m, k_values) for m in matrices}
    # Only one-point classes, of one member each, hold a hypothesis here.
    firsts = [m for m in matrices if _first_of_class(m) == m]
    assert list(admissions) == firsts
    assert built == list(walked) == [m for m in firsts if expected[m]]
    admitted = 0
    for matrix in matrices:
        assert admissions[_first_of_class(matrix)] == expected[matrix], matrix
        admitted += len(expected[matrix])
    assert all(walked[m] == expected[m] for m in walked)
    assert sweep.matrices_checked == len(matrices)
    assert sweep.spaces_admitted == admitted


def _verdicts(matrix, grids):
    """The K that admit `matrix`, and per admitted K and grid hypothesis the
    common-fixed-point counts of its holders, sorted."""
    admitted = table_admitted_k_values(matrix, list(grids))
    dist, sharp = matrix, oracle._residuals(matrix)
    counts = []
    for k in admitted:
        for hyp in grids[k]:
            held = oracle._survivors(dist, expansion_test(hyp, sharp))
            counts.append(sorted(len(t_fixed & s_fixed) for _, t_fixed, _, _, s_fixed in held))
    return admitted, counts


@pytest.mark.parametrize(
    "entries", [(0.0, 1.0, 2.0, 3.0), (0.0, 5e-324, 1e-323)], ids=["default", "subnormal"]
)
def test_relabelling_keeps_admission_and_holders(entries):
    # The relabelling lemma, for every matrix of sizes 1 to 3 and every
    # relabelling of it.  R = K + 1e-10 is added to the default grid: the
    # isometries hold it on every size, so holders with n >= 2 are compared.
    grids = {k: oracle._hypothesis_grid(k, (1e-10, 0.5), (2.0,), (0.0, 1.0)) for k in (1.0, 2.0)}
    wide_holders = 0
    for n in (1, 2, 3):
        verdicts = {
            tuple(map(tuple, m)): _verdicts(m, grids)
            for m in oracle._symmetric_matrices(n, entries)
        }
        for matrix, verdict in verdicts.items():
            for p in permutations(range(n)):
                assert verdicts[_relabelled(matrix, p)] == verdict, (matrix, p)
            if n >= 2:
                wide_holders += sum(map(len, verdict[1]))
    assert wide_holders > 0


# Entries out of order and with a repeat; at n = 4, a prefix of the
# enumeration, which has 3**10 tuples over three entries.
CLASS_REFERENCE_CASES = {
    1: ((3.0, 0.0, 1.0, 1.0), None),
    2: ((3.0, 0.0, 1.0, 1.0), None),
    3: ((3.0, 0.0, 1.0, 1.0), None),
    4: ((3.0, 0.0, 3.0), 20_000),
}


@pytest.mark.parametrize("n", CLASS_REFERENCE_CASES)
def test_relabelling_classes_match_a_brute_force_reference(n):
    # Classes are formed on entry-index tuples, so two index tuples with
    # the same values stay apart, and every member's matrix is a
    # relabelling of its first member's.  A non-empty `held` names the
    # first member of every tuple; an empty one, of first members only.
    entries, prefix = CLASS_REFERENCE_CASES[n]
    items = list(islice(oracle._relabelling_classes(n, len(entries), {()}), prefix))
    matrices = list(islice(oracle._symmetric_matrices(n, entries), prefix))
    assert len(items) == len(matrices) == (prefix or len(entries) ** (n * (n + 1) // 2))
    unheld = islice(oracle._relabelling_classes(n, len(entries), set()), prefix)
    assert list(unheld) == [
        (index, first if size else None, size) for index, first, size in items
    ]
    relabellings = list(permutations(range(n)))
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    classes = {}  # per first member, its members' matrices
    for (index, first, size), values in zip(items, matrices):
        built = oracle._matrix(n, [entries[v] for v in index])
        assert built == values  # in enumeration order
        square = oracle._matrix(n, index)
        images = {tuple(square[p[i]][p[j]] for i, j in upper) for p in relabellings}
        assert type(first) is tuple and first == min(images), index
        assert size == (len(images) if index == first else 0), index
        if first not in classes:
            first_values = oracle._matrix(n, [entries[v] for v in first])
            classes[first] = {_relabelled(first_values, p) for p in relabellings}
        assert built in classes[first]
    assert len(classes) < len(items) or n == 1


def test_default_sweep_admits_each_relabelling_class_once(monkeypatch):
    # The work of the default sweep: one admission per relabelling class,
    # from the rows of its first member; a table only for a class that
    # some K admits; distance reads through the table's own `dist` only in
    # the holder re-audits; and the per-K copies of a table that `_holders`
    # audits (one per admitted K of [[0]]).
    admissions, built, reads, copies = [], [], [], []
    admit, table_space, copy = oracle.table_admitted_k_values, oracle.table_space, oracle.replace

    def counting_admit(rows, k_values):
        admissions.append(rows)
        return admit(rows, k_values)

    def counting_table_space(*args, **kwargs):
        built.append(args[1])
        space = table_space(*args, **kwargs)

        def dist(x, y):
            reads.append((x, y))
            return space.dist(x, y)

        return replace(space, dist=dist)

    def counting_replace(*args, **kwargs):
        copies.append(kwargs)
        return copy(*args, **kwargs)

    monkeypatch.setattr(oracle, "table_admitted_k_values", counting_admit)
    monkeypatch.setattr(oracle, "table_space", counting_table_space)
    monkeypatch.setattr(oracle, "replace", counting_replace)
    sweep = iv.falsification_sweep()
    # 4 + 40 + 816 classes of the 4 + 64 + 4,096 matrices.
    assert len(admissions) == 860
    assert len(built) == 398
    assert sweep.matrices_checked == 4164
    assert len(reads) == 64
    assert copies == [{"k_const": 1.0}, {"k_const": 2.0}]


def _reference_sweep(
    sizes=(1, 2, 3),
    entries=(0.0, 1.0, 2.0, 3.0),
    k_values=(1.0, 2.0),
    r_offsets=(0.5,),
    r_factors=(2.0,),
    l_values=(0.0, 1.0),
):
    """The sweep without pruning: every (T, S) under every hypothesis of
    every K that admits the matrix."""
    matrices = admitted = instances = holders = 0
    counterexamples = []
    for n in sizes:
        labels = tuple(range(n))
        for matrix in oracle._symmetric_matrices(n, entries):
            matrices += 1
            base = iv.table_space(labels, matrix)
            dist, sharp = matrix, oracle._residuals(matrix)
            for k in table_admitted_k_values(matrix, [float(k) for k in k_values]):
                admitted += 1
                r_values = sorted({k + o for o in r_offsets} | {k * f for f in r_factors})
                hyps = [iv.RLHypothesis(float(r), float(l)) for r in r_values for l in l_values]
                instances += math.factorial(n) ** 2 * len(hyps)
                space = replace(base, k_const=k)
                for holder in oracle._holders(space, dist, sharp, hyps, _every_pair(dist)):
                    holders += 1
                    if len(holder.fixed_points) != 1:
                        counterexamples.append(oracle._counterexample(holder))
    return oracle.SweepReport(matrices, admitted, instances, holders, tuple(counterexamples))


DEFAULT_ENTRIES = (0.0, 1.0, 2.0, 3.0)
PRUNING_GRIDS = {
    "default": {},
    "scale_1e-13": dict(entries=tuple(1e-13 * e for e in DEFAULT_ENTRIES)),
    "scale_1e13": dict(entries=tuple(1e13 * e for e in DEFAULT_ENTRIES)),
    "subnormal": dict(entries=(0.0, 5e-324, 1e-323)),
    "overflow": dict(entries=(0.0, 1e308)),
    "overflow_residuals": dict(entries=(1e308, 1.7e308), l_values=(1.0,)),
    "overflow_l0": dict(entries=(0.0, 1e308, 1.7e308), l_values=(0.0,)),
    "overflow_l1": dict(entries=(0.0, 1e308, 1.7e308), l_values=(1.0,)),
    "overflow_l01": dict(entries=(0.0, 1e308, 1.7e308), l_values=(0.0, 1.0)),
    # R = K + 1e-10 is within the slack of R = K, so isometries such as the
    # identity hold it on carriers of every size; R = 2K prunes them.
    "within_slack": dict(k_values=(1.0,), r_offsets=(1e-10,)),
    # min L > 0, and on the spaces of K = 3, h0's R comes from a smaller
    # admitted K (1.1 from K = 1, or 1.6 from K = 1.5).
    "positive_l": dict(
        entries=(0.0, 1.0, 3.0),
        k_values=(1.0, 1.5, 3.0),
        r_offsets=(0.1, 2.0),
        r_factors=(1.1,),
        l_values=(0.5, 1.0),
    ),
}


@pytest.mark.parametrize("grid", PRUNING_GRIDS.values(), ids=PRUNING_GRIDS.keys())
def test_pruned_sweep_matches_the_full_walk(grid):
    # By the dominance lemma, walking every (T, S) once under the grid's
    # weakest hypothesis, and the rest only on its survivors, loses nothing.
    assert iv.falsification_sweep(**grid) == _reference_sweep(**grid)


TABLE_GRIDS = {
    "default": {},
    "subnormal": PRUNING_GRIDS["subnormal"],
    "overflow_l01": PRUNING_GRIDS["overflow_l01"],
}


@pytest.mark.parametrize("name", TABLE_GRIDS)
def test_sweep_tables_are_the_spaces_distances_and_residuals(monkeypatch, name):
    # The sweep walks the rows it built the space from, and forms the
    # residuals from them; they must read what the space's `dist` and
    # `d_sharp` read.
    grid = TABLE_GRIDS[name]
    walks = []
    residuals, walk = oracle._residuals, oracle._walk

    def recording_walk(base, rows, *args):
        walks.append([base, rows, None])
        return walk(base, rows, *args)

    def recording_residuals(dist):
        walks[-1][2] = dist, residuals(dist)
        return walks[-1][2][1]

    monkeypatch.setattr(oracle, "_walk", recording_walk)
    monkeypatch.setattr(oracle, "_residuals", recording_residuals)
    iv.falsification_sweep(**grid)
    k_values = grid.get("k_values", oracle.DEFAULT_GRID["k_values"])
    fallbacks = 0
    for space, rows, formed in walks:
        assert table_admitted_k_values(rows, k_values)
        dist, sharp = formed
        assert dist is rows
        pts = space.carrier.points
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert dist[i][j] == space.dist(x, y)
                assert sharp(i, j) == iv.d_sharp(space, x, y)
                direct = 2.0 * space.dist(x, y) - (space.dist(x, x) + space.dist(y, y))
                fallbacks += not math.isfinite(direct)
    assert len(walks) > 0
    # Only the overflow grid takes d_sharp's halved fallback.
    assert (fallbacks > 0) == (name == "overflow_l01")


ADMISSION_GRIDS = ("default", "subnormal", "overflow_l01", "positive_l", "within_slack")


@pytest.mark.parametrize("kind", list(iv.SpaceKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", ADMISSION_GRIDS)
def test_table_admission_matches_per_k_check_axioms(name, kind, admission_as):
    # The admission the sweep runs on its rows, against `check_axioms` on
    # the space built from them, for every matrix of the grid and as each
    # of the four kinds.  Admission decides a b-metric-like space, and the
    # `admission_as` fixture reads the metric-like and b-metric verdicts
    # from it.  P4 subtracts d(z, z) >= 0 from the detour, so a partial
    # metric is b-metric-like at every K.
    grid = PRUNING_GRIDS[name]
    entries = grid.get("entries", DEFAULT_ENTRIES)
    k_values = grid.get("k_values", oracle.DEFAULT_GRID["k_values"])
    admitted = rejected = 0
    for n in (1, 2, 3):
        for matrix in oracle._symmetric_matrices(n, entries):
            want = _per_k_admitted(matrix, k_values, kind)
            if kind is iv.SpaceKind.PARTIAL_METRIC:
                if want:
                    assert table_admitted_k_values(matrix, k_values) == want, matrix
            else:
                assert admission_as(matrix, k_values, kind) == want, matrix
            admitted += len(want)
            rejected += len(k_values) - len(want)
    assert admitted > 0 and rejected > 0


# Holders on every size, so classes of several members are walked member by
# member: entries out of order, and entries repeated.
CLASS_ORDER_GRIDS = {
    "unsorted": dict(entries=(2.0, 0.0, 1.0), k_values=(1.0,), r_offsets=(1e-10,)),
    "repeated": dict(entries=(1.0, 0.0, 1.0), k_values=(1.0,), r_offsets=(1e-10,)),
}


@pytest.mark.parametrize("grid", CLASS_ORDER_GRIDS.values(), ids=CLASS_ORDER_GRIDS.keys())
def test_class_sweep_keeps_the_counterexample_order(grid):
    # A class is named by the least entry-index tuple of its members, which
    # comes first in the enumeration whatever the order of the values.
    sweep = iv.falsification_sweep(**grid)
    assert sweep == _reference_sweep(**grid)
    assert len(sweep.counterexamples) > 0


def test_held_classes_are_walked_member_by_member(monkeypatch):
    # At n = 3 every isometry holds R = K + 1e-10 within slack, so classes
    # of several members have holders; each member is walked at its own
    # place in the enumeration, as the unpruned walk meets it.
    walked = []
    admit = oracle.table_admitted_k_values

    def recording_admit(rows, k_values):
        walked.append(rows)
        return admit(rows, k_values)

    monkeypatch.setattr(oracle, "table_admitted_k_values", recording_admit)
    grid = dict(PRUNING_GRIDS["within_slack"], sizes=(3,))
    sweep = iv.falsification_sweep(**grid)
    assert sweep == _reference_sweep(**grid)
    classes = sum(1 for _, _, size in oracle._relabelling_classes(3, 4, set()) if size)
    assert len(walked) > classes == 816
    assert walked == sorted(walked, key=_upper)  # in enumeration order


def test_counting_lemma_leaves_only_one_point_holders():
    # Sum of d(Tx, Sy) equals sum of d(x, y) for bijections, and a holder has
    # d(Tx, Sy) >= (1 - TOL_AXIOM/2) R d(x, y), so with R (1 - TOL_AXIOM/2) > 1
    # no admitted carrier of two or more points has a holder.
    assert iv.falsification_sweep(sizes=(2, 3)).hypothesis_holders == 0
    assert iv.falsification_sweep(sizes=(1,)).hypothesis_holders == 8
    # R > K >= 1 is not the premise: at K = 1 an offset of 1e-10 lies within
    # the slack, and one of 1e-9 does not.
    grid = dict(sizes=(2, 3), k_values=(1.0,), r_factors=(), l_values=(0.0,))
    within = iv.falsification_sweep(**grid, r_offsets=(1e-10,))
    assert (within.hypothesis_holders, len(within.counterexamples)) == (1750, 1252)
    beyond = iv.falsification_sweep(**grid, r_offsets=(1e-9,))
    assert (beyond.hypothesis_holders, len(beyond.counterexamples)) == (0, 0)


# ---------------------------------------------------------------------------
# Cycle lemma
# ---------------------------------------------------------------------------


def _orbit_local_holders(max_steps_for):
    """(instances, holders, holders off Fix(T) and Fix(S)) of the orbit-local
    hypothesis R = 1.5, L = 0 over every (T, S, x0) on every table of sizes
    2 and 3 over {0, 1, 2, 3} that K = 1 admits."""
    hyp = iv.RLHypothesis(1.5, 0.0)
    instances = holders = off_fixed = 0
    for n in (2, 3):
        labels = tuple(range(n))
        tables = [dict(zip(labels, image)) for image in permutations(labels)]
        map_pairs = [
            (pair_from_tables(t, s), {x for x in labels if t[x] == s[x] == x})
            for t in tables
            for s in tables
        ]
        for matrix in oracle._symmetric_matrices(n, (0.0, 1.0, 2.0, 3.0)):
            if not table_admitted_k_values(matrix, [1.0]):
                continue
            space = iv.table_space(labels, matrix)
            for maps, fixed in map_pairs:
                for x0 in labels:
                    instances += 1
                    trace = iv.inverse_orbit(space, maps, x0, max_steps=max_steps_for(n))
                    pairs = iv.orbit_adjacent_pairs(trace.points)
                    if iv.audit(space, maps, hyp, pairs, limit=1).passed:
                        holders += 1
                        off_fixed += x0 not in fixed
    return instances, holders, off_fixed


def test_cycle_lemma_one_period_forces_a_common_fixed_point():
    # 4n steps cover the orbit's period (at most 2n) at least once.
    assert _orbit_local_holders(lambda n: 4 * n) == (113_944, 12_706, 0)


def test_cycle_lemma_needs_a_whole_period():
    # Two steps are less than one period: holders start off the fixed points.
    assert _orbit_local_holders(lambda n: 2) == (113_944, 39_526, 26_820)


# ---------------------------------------------------------------------------
# Enumeration kernel against the reference audit
# ---------------------------------------------------------------------------


def _reference_theorem_audit(space, hyp):
    """The per-instance loop the kernel replaced: build, audit, enumerate."""
    pts = space.carrier.points
    tables = [dict(zip(pts, image)) for image in permutations(pts)]
    checked = holders = 0
    counterexamples = []
    for t_table in tables:
        for s_table in tables:
            checked += 1
            maps = pair_from_tables(t_table, s_table)
            if not iv.audit(space, maps, hyp, iv.Exhaustive(), limit=1).passed:
                continue
            holders += 1
            fps = {x for x in pts if t_table[x] == s_table[x] == x}
            if len(fps) != 1:
                counterexamples.append(
                    oracle.Counterexample(
                        oracle._freeze(t_table),
                        oracle._freeze(s_table),
                        tuple(sorted(fps, key=repr)),
                    )
                )
    return checked, holders, tuple(counterexamples)


def _kernel_verdicts(space, hyps):
    held = {
        (oracle._freeze(h.t_table), oracle._freeze(h.s_table), h.hyp)
        for h in _kernel_holders(space, hyps)
    }
    pts = space.carrier.points
    tables = [dict(zip(pts, image)) for image in permutations(pts)]
    return [
        (oracle._freeze(t), oracle._freeze(s), hyp) in held
        for t in tables
        for s in tables
        for hyp in hyps
    ]


def _reference_verdicts(space, hyps):
    pts = space.carrier.points
    tables = [dict(zip(pts, image)) for image in permutations(pts)]
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
        _kernel_theorem_audit(space, iv.RLHypothesis(2.0, 0.0))


def test_phi_theorem_audit_matches_the_reference():
    space = iv.table_space((0, 1, 2), [[0.0, 0.7, 2.0], [0.7, 0.0, 0.7], [2.0, 0.7, 0.0]])
    for a, b in ((1.5, 0.0), (0.5, 2.0), (4.0, 1.0)):
        hyp = iv.PhiHypothesis(iv.affine_phi(a, b), 1.0)
        assert _kernel_theorem_audit(space, hyp) == _reference_theorem_audit(space, hyp)
    # All-zero distances make every bijection pair a holder.
    flat = _flat_table((0, 1, 2))
    hyp = iv.PhiHypothesis(iv.affine_phi(2.0, 0.0), 1.0)
    audit = _kernel_theorem_audit(flat, hyp)
    assert audit == _reference_theorem_audit(flat, hyp)
    assert audit[1] == 36


def test_phi_floor_breach_is_raised_where_audit_raises_it():
    # phi(0.7) = 0.25 is below the floor 1, phi(2) = 10 is above it.
    hyp = iv.PhiHypothesis(iv.affine_phi(-5.0, 7.5), 1.0)
    # The walk reaches d(0, 1) = 0.7 after the vacuous pair (0, 0): both raise.
    reaching = iv.table_space((0, 1), [[0.0, 0.7], [0.7, 0.0]])
    with pytest.raises(iv.PhiBelowKSquared) as kernel:
        _kernel_theorem_audit(reaching, hyp)
    with pytest.raises(iv.PhiBelowKSquared) as reference:
        _reference_theorem_audit(reaching, hyp)
    assert str(kernel.value) == str(reference.value)
    # With d(0, 0) = 2 every walk stops at its first pair, which needs
    # d(T0, S0) >= 20: the breach at 0.7 is never evaluated.
    shielded = iv.table_space((0, 1), [[2.0, 0.7], [0.7, 0.0]])
    audit = _kernel_theorem_audit(shielded, hyp)
    assert audit == _reference_theorem_audit(shielded, hyp)
    assert audit[1] == 0


def test_counterexamples_keep_the_reference_order_and_content():
    # A constant negative distance holds every expansion hypothesis, so
    # every pair with other than one common fixed point is reported.
    space = iv.Space(iv.FiniteCarrier(("b", "a", "c")), lambda x, y: -1.0)
    for hyp in (iv.RLHypothesis(1.5, 0.0), iv.RLHypothesis(2.0, 3.0)):
        audit = _kernel_theorem_audit(space, hyp)
        assert audit == _reference_theorem_audit(space, hyp)
        assert audit[1] == 36
        # Of the 36 pairs, 9 fix exactly one common point: 3 per point.
        assert len(audit[2]) == 27
