"""Exhaustive brute-force verification on small finite spaces.

On a finite carrier the onto self-maps are exactly the bijections, so the
hypothesis-to-fixed-point claim can be checked by enumeration.  The
falsification sweep is the one entry point: over a grid of symmetric
distance matrices it keeps those that pass the axioms, audits every
ordered bijection pair (T, S) on each against a grid of expansion
hypotheses, and reports as a counterexample any hypothesis holder whose
set {x : Tx = Sx = x} is not exactly one point.

Counting lemma.  Because T and S are bijections, (Tx, Sy) runs over every
ordered pair exactly once as (x, y) does, so on a finite carrier

    sum of d(Tx, Sy) over all pairs  =  sum of d(x, y) over all pairs.

A holder of the constant form with R > K >= 1 has d(Tx, Sy) >= R d(x, y)
on every pair (the L term only raises the bound on nonnegative
distances), so the sum of all distances is at most zero: every distance is
zero.  The same holds for a rate function above K**2 >= 1.  Axiom D1 then
forbids two points, so no admitted carrier with n >= 2 has a hypothesis
holder, and every holder a sweep finds is a one-point carrier.

Cycle lemma.  Restricting the hypothesis to the pairs an inverse orbit
consumes (`orbit_adjacent_pairs`) leaves no holder off the fixed points
either.  With delta_n = d(x_n, x_{n+1}), those pairs say
delta_{n-1} >= R delta_n.  For bijections the even orbit points follow
S^-1 T^-1, so the orbit is periodic with period p <= 2n, and taken once
round the cycle the inequality gives delta_0 >= R**p delta_0 with R > 1:
every delta is zero.  D1 then makes x_0 = x_1 = x_2, so T x_0 = T x_1 = x_0
and S x_0 = S x_2 = x_1 = x_0.  (An orbit that stops at a common fixed
point started there, as T and S are injective.)  Every holder over a whole
period therefore starts in Fix(T) and Fix(S); over less than one period
the inequality constrains too little to say so.

Dominance lemma.  On one pair, a violation of (R, L) is a violation of
every (R', L') with R' >= R and L' >= L, in floating point too.  The
coefficient R + L * min(residuals) is nondecreasing in R and in L, since
the residuals are >= 0 and IEEE rounding is monotone; so is
rhs = coeff * d(x, y) for d(x, y) > 0, and at d(x, y) = 0 the rhs is 0 or
nan and breaks nothing.  For a finite lhs >= 0 the test
`rhs > lhs and exceeds(rhs, lhs)` is nondecreasing in rhs, up to and
including rhs = inf.  That needs two things of the numerics: `exceeds`
counts an infinite gap as exceeding (else an overflowed rhs complies),
and `d_sharp` stays a number on distances near the largest float (else a
nan residual makes every coefficient nan, and nan complies).  A sweep
therefore finds every holder of its grid among the pairs that hold the
grid's weakest hypothesis, the least R and the least L.

Relabelling lemma.  Renaming the points by a bijection p turns a matrix
M into M' = (M[p(i)][p(j)]), and every verdict of the sweep is the same
on M and M'.  M' holds the same doubles, and the kernel forms each value
on M' from the same operands, in the same order, as the matching value
on M: the pair check of (x, y) on M' reads what that of (p x, p y) on M
reads, a triangle's lhs, detour and K * detour on M' are those of
(p x, p y, p z) on M, and so are the residuals
|2 d(x, y) - (d(x, x) + d(y, y))| and each per-pair expansion test.
Admission is a verdict over all pairs and triples, so M' admits exactly
the K that M admits.  (T, S) holds a hypothesis on M' exactly when its
conjugate (p T p^-1, p S p^-1) holds it on M: the walk meets the same
inequalities in another order, and the order decides only which
violation comes first (the constant form raises nothing).  Conjugation
is a bijection of the ordered pairs, and x is a common fixed point of
(T, S) exactly when p x is one of the conjugate, so holders conjugate to
holders with the same number of common fixed points, and the holder
counts agree.

The sweep walks one enumeration kernel.  Per carrier size it lists the
bijections as index tuples, with their fixed indices and the
(x, y, Tx) of their pair walks, once.  Then, per matrix, it classifies,
forms rows, admits, builds a space and walks, each step only where the
one before leaves something to do.  Classify: the one matrix
enumeration runs over upper-triangle tuples of entry indices and yields
each tuple with its relabelling class, relabelling the tuple itself by
one getter per bijection; a class is named by its first member, the one
whose index tuple no relabelling puts earlier, and a tuple is known not
to be first at the first relabelling that does.  Per class the sweep
goes on from the first member alone and counts its verdicts once per
distinct member; a class whose first member has a holder is walked
member by member instead, each at its own place in the enumeration, so
every holder is re-audited and the counterexamples keep their order.
Form rows: the walked tuple's float distance table, once, from its entry
indices.  Admit: `table_admitted_k_values` decides from those rows, for
every K at once, the K that `check_axioms` passes.  Build: only a table
that some K admits becomes a `Space`, by `table_space`, for the audits
of its holders.  Walk: from the rows, the diagonal residual table is
formed once (by `sharp_residual`, the arithmetic of `d_sharp`), and
every (T, S) is walked once, in one loop, under the weakest hypothesis
of every K the matrix admits.  Only where some (T, S) survives does the
sweep set up the audit of each admitted K, and walk the survivors under
each of that K's hypotheses.  Every walk takes the ordered pairs in the
order `audit` uses and stops at the first violation, through the
per-pair test `audit` itself uses.  Holders are re-audited by `audit`
on the equivalent `MapPair`, so the kernel and the reference audit
cannot drift apart unnoticed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations, product, repeat
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import CarrierTooLarge
from .solver import (
    ExpansionTest,
    Hypothesis,
    MapPair,
    RLHypothesis,
    audit,
    check_hypothesis,
    expansion_test,
    permutation_map,
)
from .spaces import (
    Exhaustive,
    Point,
    Space,
    SpaceKind,
    check_axioms,  # not called here; perfbench/spans.py wraps oracle.check_axioms
    sharp_residual,
    table_admitted_k_values,
    table_space,
)

DEFAULT_N_MAX = 4
# The shipped sweep grid: the defaults of `falsification_sweep` and of a
# scenario's `oracle` section.  Lists, as a scenario's JSON arrays are.
DEFAULT_GRID = {
    "sizes": [1, 2, 3],
    "entries": [0.0, 1.0, 2.0, 3.0],
    "k_values": [1.0, 2.0],
    "r_offsets": [0.5],
    "r_factors": [2.0],
    "l_values": [0.0, 1.0],
    "n_max": DEFAULT_N_MAX,
}
# The most instances a sweep grid may hold, counted as if every matrix were
# admitted for every K.  The shipped grid holds 1,181,728.
MAX_SWEEP_INSTANCES = 10**7


def pair_from_tables(t_table: dict, s_table: dict) -> MapPair:
    t_fwd, t_pre = permutation_map(t_table)
    s_fwd, s_pre = permutation_map(s_table)
    return MapPair(t_fwd, s_fwd, t_pre, s_pre, "permutation", "permutation")


@dataclass(frozen=True)
class Counterexample:
    t_table: tuple[tuple[Point, Point], ...]
    s_table: tuple[tuple[Point, Point], ...]
    fixed_points: tuple[Point, ...]


def _freeze(table: dict) -> tuple:
    return tuple(sorted(table.items(), key=lambda kv: repr(kv[0])))


# ---------------------------------------------------------------------------
# Enumeration kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=DEFAULT_N_MAX)
def _bijections(n: int) -> tuple[tuple[tuple[int, ...], frozenset[int], tuple], ...]:
    """Every bijection T of range(n) as an index tuple, with its fixed
    indices and its pair walk: the S-independent part of a walk of (T, S),
    shared by every S and every table, which is (x, y, Tx) per ordered pair
    (x, y), in the order of `audit` on an exhaustive source."""
    index_pairs = tuple(product(range(n), repeat=2))
    return tuple(
        (
            t,
            frozenset(i for i in range(n) if t[i] == i),
            tuple((i, j, t[i]) for i, j in index_pairs),
        )
        for t in permutations(range(n))
    )


def _residuals(dist: Sequence[Sequence[float]]) -> Callable[[int, int], float]:
    """The diagonal residuals of a float distance table by position, each
    formed from that table by the arithmetic of `d_sharp`."""
    diagonal = [row[i] for i, row in enumerate(dist)]
    sharp_rows = tuple(
        tuple(map(sharp_residual, row, repeat(dxx), diagonal))
        for row, dxx in zip(dist, diagonal)
    )

    def sharp(i: int, j: int) -> float:
        return sharp_rows[i][j]

    return sharp


@dataclass(frozen=True)
class _Holder:
    hyp: Hypothesis
    t_table: dict
    s_table: dict
    fixed_points: tuple[Point, ...]


def _survivors(dist: tuple, test: ExpansionTest) -> Iterator[tuple]:
    """Every ordered bijection pair (T, S) on the distance table `dist`
    that passes the `expansion_test` `test` on every ordered pair, T-major,
    then S, as (t, t_fixed, t_walk, s, s_fixed) from `_bijections`.

    Each walk stops at its first violation, so any PhiBelowKSquared arises
    where `audit` raises it.
    """
    bijections = _bijections(len(dist))
    for t, t_fixed, t_walk in bijections:
        for s, s_fixed, _ in bijections:
            for i, j, a in t_walk:
                b = s[j]
                if test(i, j, a, b, dist[i][j], dist[a][b]) is not None:
                    break
            else:
                yield t, t_fixed, t_walk, s, s_fixed


def _holds(test: ExpansionTest, dist: tuple, t_walk: tuple, s: tuple) -> bool:
    """Whether (T, S) passes `test` as well, walked as `_survivors` walks it."""
    for i, j, a in t_walk:
        b = s[j]
        if test(i, j, a, b, dist[i][j], dist[a][b]) is not None:
            return False
    return True


def _holders(
    space: Space,
    dist: tuple,
    sharp: Callable,
    hyps: Iterable[Hypothesis],
    pairs: Iterable[tuple],
) -> Iterator[_Holder]:
    """Audit every (T, S, hypothesis) instance of `pairs` on the tables
    `dist` and `sharp` of `space`; yield the holders.

    `pairs` are `_survivors` items, and instances run in their order, then
    in the order of `hyps`.  Each holder is confirmed by `audit` on the
    equivalent `MapPair`.
    """
    # Checked one at a time, so an invalid hypothesis raises the error
    # `audit` raised on the first instance.  Each test is built once.
    tests = []
    for hyp in hyps:
        check_hypothesis(space, hyp)
        tests.append((hyp, expansion_test(hyp, sharp)))
    for t, t_fixed, t_walk, s, s_fixed in pairs:
        for hyp, test in tests:
            if _holds(test, dist, t_walk, s):
                yield _holder(space, hyp, t, s, t_fixed & s_fixed)


def _holder(
    space: Space, hyp: Hypothesis, t: tuple, s: tuple, fixed: frozenset
) -> _Holder:
    """The holder (T, S) as tables, confirmed by `audit` on the same instance."""
    pts = space.carrier.points
    t_table = {x: pts[k] for x, k in zip(pts, t)}
    s_table = {x: pts[k] for x, k in zip(pts, s)}
    maps = pair_from_tables(t_table, s_table)
    if not audit(space, maps, hyp, Exhaustive()).passed:
        raise RuntimeError(
            f"the enumeration kernel and audit disagree on T = {t}, "
            f"S = {s} under {hyp!r}"
        )
    return _Holder(hyp, t_table, s_table, tuple(pts[i] for i in sorted(fixed)))


def _counterexample(holder: _Holder) -> Counterexample:
    return Counterexample(
        _freeze(holder.t_table),
        _freeze(holder.s_table),
        tuple(sorted(holder.fixed_points, key=repr)),
    )


# ---------------------------------------------------------------------------
# Falsification sweep over distance-matrix grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    matrices_checked: int
    spaces_admitted: int
    instances_checked: int
    hypothesis_holders: int
    counterexamples: tuple[Counterexample, ...]


def _upper(n: int) -> list[tuple[int, int]]:
    """The upper triangle of an n x n matrix, row by row."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@lru_cache(maxsize=DEFAULT_N_MAX)
def _slots(n: int) -> tuple[tuple[int, ...], ...]:
    """Per cell (i, j) of an n x n symmetric matrix, the position of its
    entry in the upper triangle, row by row."""
    slot = {}
    for k, (i, j) in enumerate(_upper(n)):
        slot[i, j] = slot[j, i] = k
    return tuple(tuple(slot[i, j] for j in range(n)) for i in range(n))


def _matrix(n: int, values: Sequence) -> tuple[tuple, ...]:
    """The symmetric n x n matrix whose upper triangle, row by row, is `values`."""
    get = values.__getitem__
    return tuple(tuple(map(get, row)) for row in _slots(n))


def _symmetric_matrices(n: int, entries: Sequence[float]) -> Iterable[tuple[tuple, ...]]:
    """Every symmetric n x n matrix over `entries`, in enumeration order."""
    for values in product(entries, repeat=n * (n + 1) // 2):
        yield _matrix(n, values)


def _relabelling_classes(
    n: int, n_entries: int, held: Collection
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...] | None, int]]:
    """Every symmetric n x n matrix over the entry indices range(n_entries),
    as its upper-triangle index tuple, in `_symmetric_matrices` order, with
    its relabelling class.

    A relabelling by a bijection p maps the matrix M to the matrix
    (M[p(i)][p(j)]).  Each item is (index, first, size): `first` is the
    index tuple of the class's first member in enumeration order, which is
    the least of its members' tuples, as `product` runs in lexicographic
    order; `size` is the number of distinct members for the first member
    itself and 0 for every other.  A tuple is known not to be its class's
    first member as soon as one relabelling puts it earlier, so all n!
    relabellings are formed only for first members, and for the others
    only while the caller's `held` is non-empty: else their `first` is
    None.  Index tuples are compared, not values, so entries in any order,
    or repeated, give the same classes.  No matrix is built.
    """
    slots = _slots(n)
    # One getter per relabelling but the identity, which comes first and
    # leaves the tuple as it is; so n = 1 has none.
    moves = [
        itemgetter(*(slots[p[i]][p[j]] for i, j in _upper(n)))
        for p, _, _ in _bijections(n)[1:]
    ]
    for index in product(range(n_entries), repeat=n * (n + 1) // 2):
        for move in moves:
            if move(index) < index:
                break
        else:
            yield index, index, len({index, *[move(index) for move in moves]})
            continue
        yield index, (min([move(index) for move in moves]) if held else None), 0


def _hypothesis_grid(
    k: float,
    r_offsets: Sequence[float],
    r_factors: Sequence[float],
    l_values: Sequence[float],
) -> tuple[RLHypothesis, ...]:
    """The hypotheses a space with constant K is audited under, R-major.

    Raises ValueError if an R rounds onto K.
    """
    r_values = sorted({k + o for o in r_offsets} | {k * f for f in r_factors})
    if r_values and not r_values[0] > k:
        raise ValueError(
            f"sweep R = {r_values[0]!r} does not exceed K = {k!r}: "
            "an r_offset or r_factor of the grid rounds onto K"
        )
    return tuple(RLHypothesis(float(r), float(l)) for r in r_values for l in l_values)


def _weakest(hyps: Sequence[RLHypothesis]) -> RLHypothesis | None:
    """The least R and the least L of `hyps`: a pair that breaks it breaks
    every one of them (see the dominance lemma)."""
    if not hyps:
        return None
    return RLHypothesis(min(h.r_const for h in hyps), min(h.l_const for h in hyps))


def _walk(
    base: Space,
    rows: Sequence[Sequence[float]],
    admitted: tuple[float, ...],
    grids: dict[float, tuple[RLHypothesis, ...]],
    weakest: dict[tuple, RLHypothesis | None],
) -> list[_Holder]:
    """The holders of the table `base`, whose distance table is `rows`,
    under the hypotheses `grids` gives each K of `admitted`, K by K.

    `admitted` is non-empty; `weakest` caches the weakest hypothesis per
    admitted K tuple.
    """
    if admitted not in weakest:
        weakest[admitted] = _weakest([h for k in admitted for h in grids[k]])
    h0 = weakest[admitted]
    if h0 is None:
        return []
    sharp = _residuals(rows)  # formed once, shared by every admitting K
    # One walk per (T, S) under the grid's weakest hypothesis: by the
    # dominance lemma only the pairs it keeps can hold any other.  Where
    # none does, no K has a holder, and `_hypothesis_grid` has already
    # checked every R against its K.
    survivors = list(_survivors(rows, expansion_test(h0, sharp)))
    found: list[_Holder] = []
    if survivors:
        for k in admitted:
            found.extend(_holders(replace(base, k_const=k), rows, sharp, grids[k], survivors))
    return found


def _bound_work(
    sizes: Sequence[int], n_entries: int, per_pair: int, n_max: int
) -> None:
    """Raise CarrierTooLarge unless every size is at most `n_max` and the
    grid holds at most MAX_SWEEP_INSTANCES instances, counted as if every
    matrix were admitted for every K:

        U = sum over n of n_entries**(n(n+1)/2) * (n!)**2 * per_pair.
    """
    for n in sizes:
        if n > n_max:
            raise CarrierTooLarge(f"sweep size {n} exceeds n_max={n_max}")
    if not (n_entries and per_pair):
        return  # no instance at all
    for n in sizes:
        # Decided from log(n!), so an absurd size is refused without
        # forming its count.
        if 2.0 * math.lgamma(n + 1) > math.log(MAX_SWEEP_INSTANCES):
            raise CarrierTooLarge(
                f"sweep size {n} has ({n}!)**2 map pairs per matrix, above the "
                f"limit of {MAX_SWEEP_INSTANCES:,} instances"
            )
    work = per_pair * sum(
        n_entries ** (n * (n + 1) // 2) * math.factorial(n) ** 2 for n in sizes
    )
    if work > MAX_SWEEP_INSTANCES:
        raise CarrierTooLarge(
            f"the sweep grid holds up to {work:,} instances, above the limit of "
            f"{MAX_SWEEP_INSTANCES:,}"
        )


def falsification_sweep(
    sizes: Sequence[int] = DEFAULT_GRID["sizes"],
    entries: Sequence[float] = DEFAULT_GRID["entries"],
    k_values: Sequence[float] = DEFAULT_GRID["k_values"],
    r_offsets: Sequence[float] = DEFAULT_GRID["r_offsets"],
    r_factors: Sequence[float] = DEFAULT_GRID["r_factors"],
    l_values: Sequence[float] = DEFAULT_GRID["l_values"],
    n_max: int = DEFAULT_GRID["n_max"],
) -> SweepReport:
    """Grid-search distance matrices for counterexamples to uniqueness.

    Every symmetric matrix over `entries` is tried as a b-metric-like
    space for each K in `k_values`; matrices failing the axioms are
    dropped.  Admission is decided once per matrix for every K, from its
    distance table, by `table_admitted_k_values`, which passes exactly the
    K that `check_axioms` passes; only an admitted matrix becomes a space.
    Admitted spaces are audited across all ordered bijection pairs with
    constants R drawn from {K + offset} and {K * factor} and L from
    `l_values`.  A report with no counterexamples means every
    hypothesis holder had exactly one common fixed point.  By the counting
    lemma (module docstring) every holder has n = 1.

    The matrices are walked one relabelling class at a time (see the
    relabelling lemma): a class whose first member has no holder is
    counted from that member alone, and every member of a class with a
    holder is walked at its own place in the enumeration.

    The grid is checked before the walk starts: a size above `n_max`, or
    more than MAX_SWEEP_INSTANCES instances were every matrix admitted
    for every K, raises CarrierTooLarge; a non-finite or negative entry,
    a K below 1, a size below 1, or an R that rounds onto its K, raises
    ValueError, in that order.
    """
    per_pair = len(k_values) * (len(r_offsets) + len(r_factors)) * len(l_values)
    _bound_work(sizes, len(entries), per_pair, n_max)
    if not all(math.isfinite(e) for e in entries):
        raise ValueError("sweep entries must be finite")
    if any(e < 0 for e in entries):
        raise ValueError("matrix entries must be nonnegative")
    if any(k < 1.0 for k in k_values):
        raise ValueError("k_const must be >= 1")
    if min(sizes, default=1) < 1:
        raise ValueError("sweep sizes must be at least 1")
    values = [float(e) for e in entries]  # as `table_space` reads them
    k_floats = [float(k) for k in k_values]
    grids = {k: _hypothesis_grid(k, r_offsets, r_factors, l_values) for k in k_floats}
    weakest: dict[tuple, RLHypothesis | None] = {}  # per admitted K tuple
    matrices_checked = 0
    spaces_admitted = 0
    instances_checked = 0
    holders = 0
    counterexamples: list[Counterexample] = []
    for n in sizes:
        labels = tuple(range(n))
        n_pairs = len(_bijections(n)) ** 2
        held = set()  # the classes with a holder, by their first member
        for index, first, size in _relabelling_classes(n, len(entries), held):
            if not size and first not in held:
                continue  # counted with the first member of its class
            rows = _matrix(n, [values[v] for v in index])
            admitted = tuple(table_admitted_k_values(rows, k_floats))
            found = []
            if admitted:
                base = table_space(labels, rows, k_const=1.0, kind=SpaceKind.B_METRIC_LIKE)
                found = _walk(base, rows, admitted, grids, weakest)
            if found:
                held.add(first)
            # A first member without a holder counts for every member of
            # its class; a walked member of a class with one, for itself.
            weight = size if size and not found else 1
            matrices_checked += weight
            spaces_admitted += weight * len(admitted)
            instances_checked += weight * n_pairs * sum(len(grids[k]) for k in admitted)
            holders += len(found)
            # D1 leaves no two labels of an admitted space at distance
            # zero to identify, so any count but one is a counterexample.
            counterexamples.extend(
                _counterexample(h) for h in found if len(h.fixed_points) != 1
            )
    return SweepReport(
        matrices_checked,
        spaces_admitted,
        instances_checked,
        holders,
        tuple(counterexamples),
    )
