"""Exhaustive brute-force verification on small finite spaces.

On a finite carrier the onto self-maps are exactly the bijections, so the
full hypothesis-to-fixed-point claim can be checked by enumeration: for
every ordered bijection pair (T, S) that passes the exhaustive expansion
audit, the set {x : Tx = Sx = x} must contain exactly one point, up to the
identification of distinct labels at distance zero (which axiom checking
rejects anyway; the guard documents the boundary).

The falsification sweep extends this over a grid of symmetric distance
matrices, keeping only those that pass the axioms, and reports any
counterexample it finds.  The solver is cross-validated against the same
enumeration.

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

All three entry points share one enumeration kernel.  Per carrier size it
lists the bijections as index tuples, once; per space it reads the
distances and diagonal residuals into tables, once; per (T, S, hypothesis)
it walks the ordered pairs in the order `audit` uses and stops at the
first violation, through the per-pair test `audit` itself uses.  Holders
are re-audited by `audit` on the equivalent `MapPair`, so the kernel and
the reference audit cannot drift apart unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from .errors import CarrierTooLarge
from .solver import (
    Hypothesis,
    MapPair,
    RLHypothesis,
    audit,
    check_hypothesis,
    expansion_violation,
    permutation_map,
    solve,
)
from .spaces import (
    Exhaustive,
    Point,
    Space,
    SpaceKind,
    admitted_k_values,
    check_axioms,  # not called here; perfbench/spans.py wraps oracle.check_axioms
    d_sharp,
    table_space,
)

DEFAULT_N_MAX = 4


def bijection_tables(points: Sequence[Point]) -> list[dict]:
    """All bijections of a finite point set, as mapping tables."""
    return [dict(zip(points, image)) for image in permutations(points)]


def pair_from_tables(t_table: dict, s_table: dict) -> MapPair:
    t_fwd, t_pre = permutation_map(t_table)
    s_fwd, s_pre = permutation_map(s_table)
    return MapPair(t_fwd, s_fwd, t_pre, s_pre, "permutation", "permutation")


def common_fixed_points(space: Space, maps: MapPair) -> set:
    """The exact set {x : T(x) = x and S(x) = x}, by enumeration."""
    if not space.is_finite:
        raise CarrierTooLarge("common fixed point enumeration needs a finite carrier")
    return {
        p
        for p in space.carrier.points
        if maps.t_forward(p) == p and maps.s_forward(p) == p
    }


def has_zero_distance_pair(space: Space) -> bool:
    """True when two distinct labels sit at distance exactly zero."""
    pts = space.carrier.points
    return any(
        space.dist(x, y) == 0.0 for x in pts for y in pts if x != y
    )


@dataclass(frozen=True)
class Counterexample:
    t_table: tuple[tuple[Point, Point], ...]
    s_table: tuple[tuple[Point, Point], ...]
    fixed_points: tuple[Point, ...]


@dataclass(frozen=True)
class TheoremAudit:
    instances_checked: int
    hypothesis_holders: int
    counterexamples: tuple[Counterexample, ...]


def _freeze(table: dict) -> tuple:
    return tuple(sorted(table.items(), key=lambda kv: repr(kv[0])))


# ---------------------------------------------------------------------------
# Enumeration kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=DEFAULT_N_MAX)
def _bijections(n: int) -> tuple[tuple[tuple[int, ...], frozenset[int]], ...]:
    """Every bijection of range(n) as an index tuple, with its fixed indices."""
    return tuple(
        (t, frozenset(i for i in range(n) if t[i] == i))
        for t in permutations(range(n))
    )


def _tables(space: Space) -> tuple[tuple, tuple]:
    """A finite space's distances and diagonal residuals, indexed by position."""
    pts = space.carrier.points
    return (
        tuple(tuple(space.dist(x, y) for y in pts) for x in pts),
        tuple(tuple(d_sharp(space, x, y) for y in pts) for x in pts),
    )


@dataclass(frozen=True)
class _Holder:
    hyp: Hypothesis
    t_table: dict
    s_table: dict
    maps: MapPair
    fixed_points: tuple[Point, ...]


def _holders(
    space: Space, dist: tuple, sharp_rows: tuple, hyps: Iterable[Hypothesis]
) -> Iterator[_Holder]:
    """Audit every (T, S, hypothesis) instance; yield the hypothesis holders.

    Instances run T-major, then S, then `hyps` in order, and each walks the
    ordered pairs in the order of `audit` on an exhaustive source, so the
    first violation and any PhiBelowKSquared arise where `audit` finds them.
    Each holder is confirmed by `audit` on the equivalent `MapPair`.
    """
    # Built and checked one at a time, so an invalid hypothesis raises the
    # error `audit` raised on the first instance.
    checked_hyps = []
    for hyp in hyps:
        check_hypothesis(space, hyp)
        checked_hyps.append(hyp)
    pts = space.carrier.points

    def sharp(i: int, j: int) -> float:
        return sharp_rows[i][j]

    n = len(pts)
    bijections = _bijections(n)
    index_pairs = tuple(product(range(n), repeat=2))  # `audit`'s pair order
    for t, t_fixed in bijections:
        # The walk's S-independent part: x, y, Tx, d(x, y) and the row of Tx.
        t_walk = tuple((i, j, t[i], dist[i][j], dist[t[i]]) for i, j in index_pairs)
        for s, s_fixed in bijections:
            for hyp in checked_hyps:
                for i, j, a, dxy, a_row in t_walk:
                    b = s[j]
                    if expansion_violation(
                        hyp, sharp, i, j, a, b, dxy, a_row[b]
                    ) is not None:
                        break
                else:
                    yield _holder(space, hyp, t, s, t_fixed & s_fixed)


def _holder(
    space: Space, hyp: Hypothesis, t: tuple, s: tuple, fixed: frozenset
) -> _Holder:
    """The holder (T, S) as maps, confirmed by `audit` on the same instance."""
    pts = space.carrier.points
    t_table = {x: pts[k] for x, k in zip(pts, t)}
    s_table = {x: pts[k] for x, k in zip(pts, s)}
    maps = pair_from_tables(t_table, s_table)
    if not audit(space, maps, hyp, Exhaustive()).passed:
        raise RuntimeError(
            f"the enumeration kernel and audit disagree on T = {t}, "
            f"S = {s} under {hyp!r}"
        )
    return _Holder(hyp, t_table, s_table, maps, tuple(pts[i] for i in sorted(fixed)))


def _counterexample(holder: _Holder) -> Counterexample:
    return Counterexample(
        _freeze(holder.t_table),
        _freeze(holder.s_table),
        tuple(sorted(holder.fixed_points, key=repr)),
    )


def _finite_points(space: Space, n_max: int, purpose: str) -> tuple[Point, ...]:
    if not space.is_finite:
        raise CarrierTooLarge(f"{purpose} needs a finite carrier")
    pts = space.carrier.points
    if len(pts) > n_max:
        raise CarrierTooLarge(f"carrier size {len(pts)} exceeds n_max={n_max}")
    return pts


def audit_theorem_finite(
    space: Space, hyp: Hypothesis, n_max: int = DEFAULT_N_MAX
) -> TheoremAudit:
    """Audit every ordered bijection pair and count hypothesis holders.

    For each pair passing the full exhaustive audit, the common fixed
    point set must be a singleton unless distinct zero-distance labels
    blur uniqueness; anything else is recorded as a counterexample.
    """
    pts = _finite_points(space, n_max, "theorem auditing")
    holders = 0
    counterexamples: list[Counterexample] = []
    zero_pair = has_zero_distance_pair(space)
    for holder in _holders(space, *_tables(space), [hyp]):
        holders += 1
        if len(holder.fixed_points) != 1 and not zero_pair:
            counterexamples.append(_counterexample(holder))
    checked = len(_bijections(len(pts))) ** 2
    return TheoremAudit(checked, holders, tuple(counterexamples))


def cross_validate(
    space: Space,
    hyp: Hypothesis,
    x0: Point | None = None,
    n_max: int = DEFAULT_N_MAX,
    max_steps: int = 10_000,
) -> bool:
    """Solve from every start on every hypothesis-holding pair and compare.

    The solver's candidate must lie in the enumerated common fixed point
    set each time; the conjunction over all runs is returned.  Vacuously
    true when no bijection pair holds the hypothesis.
    """
    pts = _finite_points(space, n_max, "cross validation")
    starts = list(pts) if x0 is None else [x0]
    for holder in _holders(space, *_tables(space), [hyp]):
        for start in starts:
            report = solve(space, holder.maps, hyp, start, max_steps=max_steps)
            if report.candidate not in holder.fixed_points:
                return False
    return True


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


def _symmetric_matrices(n: int, entries: Sequence[float]) -> Iterable[list[list[float]]]:
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for values in product(entries, repeat=len(upper)):
        matrix = [[0.0] * n for _ in range(n)]
        for (i, j), v in zip(upper, values):
            matrix[i][j] = v
            matrix[j][i] = v
        yield matrix


def falsification_sweep(
    sizes: Sequence[int] = (1, 2, 3),
    entries: Sequence[float] = (0.0, 1.0, 2.0, 3.0),
    k_values: Sequence[float] = (1.0, 2.0),
    r_offsets: Sequence[float] = (0.5,),
    r_factors: Sequence[float] = (2.0,),
    l_values: Sequence[float] = (0.0, 1.0),
    n_max: int = DEFAULT_N_MAX,
) -> SweepReport:
    """Grid-search distance matrices for counterexamples to uniqueness.

    Every symmetric matrix over `entries` is tried as a b-metric-like
    space for each K in `k_values`; matrices failing the axioms are
    dropped.  Admission is decided once per matrix for every K, by
    `admitted_k_values`, which passes exactly the K that `check_axioms`
    passes.  Admitted spaces are audited across all ordered bijection
    pairs with constants R drawn from {K + offset} and {K * factor} and L
    from `l_values`.  A report with no counterexamples means every
    hypothesis holder had exactly one common fixed point.  By the counting
    lemma (module docstring) every holder has n = 1.
    """
    matrices_checked = 0
    spaces_admitted = 0
    instances_checked = 0
    holders = 0
    counterexamples: list[Counterexample] = []
    k_floats = [float(k) for k in k_values]
    for n in sizes:
        if n > n_max:
            raise CarrierTooLarge(f"sweep size {n} exceeds n_max={n_max}")
        labels = tuple(range(n))
        n_pairs = len(_bijections(n)) ** 2
        for matrix in _symmetric_matrices(n, entries):
            matrices_checked += 1
            base = table_space(labels, matrix, k_const=1.0, kind=SpaceKind.B_METRIC_LIKE)
            admitted = admitted_k_values(base, k_floats)
            if not admitted:
                continue
            tables = _tables(base)  # read once, shared by every admitting K
            for k in admitted:
                spaces_admitted += 1
                space = replace(base, k_const=k)
                r_values = sorted(
                    {k + o for o in r_offsets} | {k * f for f in r_factors}
                )
                hyps = (RLHypothesis(float(r), float(l)) for r in r_values for l in l_values)
                instances_checked += n_pairs * len(r_values) * len(l_values)
                # D1 leaves no two labels of an admitted space at distance
                # zero to identify, so any count but one is a counterexample.
                for holder in _holders(space, *tables, hyps):
                    holders += 1
                    if len(holder.fixed_points) != 1:
                        counterexamples.append(_counterexample(holder))
    return SweepReport(
        matrices_checked,
        spaces_admitted,
        instances_checked,
        holders,
        tuple(counterexamples),
    )
