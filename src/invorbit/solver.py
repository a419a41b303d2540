"""Inverse-orbit construction and hypothesis auditing for onto map pairs.

Given two onto self-maps T and S with deterministic preimage selectors,
the orbit runs backwards through preimages:

    x_1 = T_pre(x_0), x_2 = S_pre(x_1), x_3 = T_pre(x_2), ...

so that T(x_1) = x_0, S(x_2) = x_1, and so on.  When the pair expands
distances (dist(Tx, Sy) >= coeff * dist(x, y) with coeff above K), the
orbit contracts and its limit is the unique common fixed point of T and S.

Two hypothesis forms are audited: a constant-coefficient form with
constants (R, L) where the coefficient is R + L * min of four diagonal
residuals, and a rate-function form where the coefficient is phi(dist(x,y))
for a user function phi with values above K**2.

The orbit stops only when a point is exactly fixed by both maps (exact
identity, not ambient tolerance: residuals certify at zero only if the
orbit genuinely lands on the fixed point, which linear preimages reach by
underflow) or when the step budget runs out, labelled by whether its tail
had collapsed below tolerance; a recurring state is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import cycle, islice, product
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence, Union

from .analysis import CauchyOutcome, CauchyVerdict, Cycled, geometric_cauchy_check
from .errors import (
    ExhaustiveOnInfiniteCarrier,
    PhiBelowKSquared,
    PreimageBroken,
)
from .numerics import TOL_FIX, exceeds, tail_window
from .spaces import (
    Exhaustive,
    Point,
    Sample,
    Sampled,
    Space,
    d_sharp,
    sample_pairs,
    split_walk,
)

DEFAULT_MAX_STEPS = 10_000


# ---------------------------------------------------------------------------
# Map pairs
# ---------------------------------------------------------------------------


class MapPair(NamedTuple):
    """Forward evaluators plus preimage selectors witnessing surjectivity.

    The selectors must satisfy t_forward(t_preimage(y)) == y and likewise
    for s; round trips are checked at orbit time and by `check_roundtrip`.
    All four callables must be functions of their argument: the same point
    in gives the same point out.  `inverse_orbit` repeats a cycle on that
    assumption, and `audit` repeats the outcomes of its pairs.
    """

    t_forward: Callable[[Point], Point]
    s_forward: Callable[[Point], Point]
    t_preimage: Callable[[Point], Point]
    s_preimage: Callable[[Point], Point]
    t_label: str = "custom"
    s_label: str = "custom"


def linear_map(a: float) -> tuple[Callable, Callable]:
    """x -> a*x with preimage y -> y/a; requires a > 0."""
    if not a > 0:
        raise ValueError("linear map coefficient must be positive")
    return (lambda x: a * x), (lambda y: y / a)


def identity_map() -> tuple[Callable, Callable]:
    return (lambda x: x), (lambda y: y)


def permutation_map(table: dict) -> tuple[Callable, Callable]:
    """A bijection given as a mapping; preimage is the inverted table."""
    inverse = {v: k for k, v in table.items()}
    if len(inverse) != len(table):
        raise ValueError("permutation table must be a bijection")
    return table.__getitem__, inverse.__getitem__


def _roundtrip_broken(where: str, at, y: Point, back: Point) -> NoReturn:
    """Raise PreimageBroken for forward(preimage(y)) = back != y.

    The message is led by `where` and `at` (e.g. "step" and 3); they are
    joined only here, so a passing round trip formats nothing.
    """
    raise PreimageBroken(f"{where} {at}: forward(preimage({y!r})) = {back!r} != {y!r}")


def check_roundtrip(space: Space, maps: MapPair, points: Iterable[Point]) -> None:
    """Raise PreimageBroken unless both selectors round-trip on `points`.

    The test is ambient equality: forward(preimage(p)) must equal p.
    """
    sides = (
        (maps.t_forward, maps.t_preimage, maps.t_label),
        (maps.s_forward, maps.s_preimage, maps.s_label),
    )
    equal = space.carrier.equal
    for p in points:
        for forward, preimage, label in sides:
            back = forward(preimage(p))
            if not equal(back, p):
                _roundtrip_broken("map", label, p, back)


# ---------------------------------------------------------------------------
# Expansion hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RLHypothesis:
    """dist(Tx, Sy) >= [r_const + l_const * min of diagonal residuals] * dist(x, y)."""

    r_const: float
    l_const: float = 0.0

    def __post_init__(self):
        if self.l_const < 0:
            raise ValueError("l_const must be nonnegative")


class PhiHypothesis(NamedTuple):
    """dist(Tx, Sy) >= phi(dist(x, y)) * dist(x, y) for positive distances.

    `k_squared` is the codomain floor phi must stay strictly above.  The
    limit condition (phi(t_n) approaching the floor forces t_n -> 0) is a
    property over all sequences, not machine-checkable for a black-box
    phi: no check here reads it.  A scenario may record it as attested.
    """

    phi: Callable[[float], float]
    k_squared: float


Hypothesis = Union[RLHypothesis, PhiHypothesis]


def affine_phi(a: float, b: float) -> Callable[[float], float]:
    """The built-in rate family t -> a + b*t."""
    return lambda t: a + b * t


# ---------------------------------------------------------------------------
# Orbit construction
# ---------------------------------------------------------------------------


class Termination(Enum):
    FIXED_POINT_HIT = "fixed_point_hit"
    TOLERANCE_MET = "tolerance_met"
    MAX_ITERATIONS = "max_iterations"


class OrbitTrace(NamedTuple):
    """An orbit's computed points and distances, its Cauchy verdict and its ending.

    Of its `steps` steps only those up to a recurring state are computed
    and stored, and `period` is the number of steps between the two visits
    (0 if none).  `points`, `successive_distances` and
    `cauchy.per_step_ratios` read as full-length `Cycled` columns.
    """

    computed_points: tuple[Point, ...]
    computed_distances: tuple[float, ...]
    cauchy: CauchyVerdict
    terminated_by: Termination
    period: int
    steps: int

    @property
    def points(self) -> Cycled:
        return Cycled(self.computed_points, self.steps + 1, self.period)

    @property
    def successive_distances(self) -> Cycled:
        return Cycled(self.computed_distances, self.steps, self.period)


def inverse_orbit(
    space: Space,
    maps: MapPair,
    x0: Point,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> OrbitTrace:
    """Run the backward orbit from x0, alternating T- and S-preimages.

    Every computed step re-checks the selector round trip (ambient
    equality) and records dist(x_n, x_{n+1}).  Stops early only at a point
    exactly fixed by both maps; a stalled-but-unfixed point (an
    identity-like map on one side) keeps iterating, since only a common
    fixed point ends the construction.

    A cycle is computed once.  When a new point x_m is the same point as
    an earlier x_j with m - j even, the state (point, side) has recurred,
    and every later step would repeat the one m - j before it.  The orbit
    then stops computing, records the period m - j (`OrbitTrace`) and ends
    as a full run does.  Two points are the same point when they are the
    same object, or both of type float exactly, equal and nonzero: -0.0
    and 0.0 stay apart, and so do equal float-subclass points.  x_m is
    tested against x_{m-2} and, at even m, against a checkpoint that moves
    to x_m at each power of two (Brent's test), in O(1) memory: a cycle of
    period p entered after s steps is found within 3(s + p) steps.
    """
    if max_steps < 2:
        raise ValueError("max_steps must be at least 2")
    if not space.carrier.contains(x0):
        raise ValueError(f"start point {x0!r} is outside the carrier")
    pts: list[Point] = [x0]
    dists: list[float] = []
    terminated = Termination.MAX_ITERATIONS
    period = 0
    # Everything the loop calls is bound once; each step runs every check.
    dist, equal, contains = space.dist, space.carrier.equal, space.carrier.contains
    add_point, add_dist = pts.append, dists.append
    t_forward, s_forward = maps.t_forward, maps.s_forward
    sides = ((s_forward, maps.s_preimage), (t_forward, maps.t_preimage))
    prev, cur, mark, mark_at = object(), x0, x0, 0
    for m in range(1, max_steps + 1):  # x_m is the point step m - 1 computes
        forward, preimage = sides[m & 1]
        nxt = preimage(cur)
        back = forward(nxt)
        if not equal(back, cur):
            _roundtrip_broken("step", m - 1, cur, back)
        if not contains(nxt):
            raise PreimageBroken(f"step {m - 1}: preimage {nxt!r} left the carrier")
        add_point(nxt)
        add_dist(dist(cur, nxt))
        if nxt == cur and t_forward(nxt) == nxt and s_forward(nxt) == nxt:
            terminated = Termination.FIXED_POINT_HIT
            break
        # The same-point rule, `==` first: the fixed-point test calls it anyway.
        if nxt is prev or (nxt == prev and type(nxt) is float and type(prev) is float and nxt):
            period = 2
            break
        if not m & 1:
            if nxt is mark or (nxt == mark and type(nxt) is float and type(mark) is float and nxt):
                period = m - mark_at
                break
            if not m & (m - 1):
                mark, mark_at = nxt, m
        prev, cur = cur, nxt
    steps = max_steps if period else len(dists)
    distances = Cycled(tuple(dists), steps, period)
    if terminated is Termination.MAX_ITERATIONS:
        if max(distances.tail(steps - tail_window(steps)).values) <= TOL_FIX:
            terminated = Termination.TOLERANCE_MET
    cauchy = (  # one distance yields no ratios: nothing to certify
        geometric_cauchy_check(distances, space.k_const, TOL_FIX)
        if steps >= 2
        else CauchyVerdict(0.0, 1.0 / space.k_const, CauchyOutcome.INCONCLUSIVE, (), ())
    )
    return OrbitTrace(tuple(pts), distances.values, cauchy, terminated, period, steps)


def orbit_adjacent_pairs(points: Sequence[Point]) -> list[tuple[Point, Point]]:
    """The ordered (T-argument, S-argument) pairs an orbit run consumes.

    Odd-indexed points feed T and even-indexed points feed S, so each
    adjacent index pair contributes one ordered pair with the odd point
    first.
    """
    pts = tuple(points)
    return [(pts[i | 1], pts[(i + 1) & ~1]) for i in range(1, len(pts) - 1)]


# ---------------------------------------------------------------------------
# Hypothesis audits
# ---------------------------------------------------------------------------


class AuditViolation(NamedTuple):
    x: Point
    y: Point
    lhs: float
    rhs: float


class AuditReport(NamedTuple):
    checked_pairs: int
    violations: tuple[AuditViolation, ...]
    passed: bool


PairSource = Union[Exhaustive, Sampled, OrbitTrace, Iterable[tuple[Point, Point]]]


def _resolve_pairs(space: Space, pairs: PairSource) -> tuple[Iterable, int, int]:
    """The pairs to walk, the count of them before the outcomes that
    repeat, and how many pairs repeat those outcomes after the walk."""
    if isinstance(pairs, Exhaustive):
        if not space.is_finite:
            raise ExhaustiveOnInfiniteCarrier("exhaustive pair auditing needs a finite carrier")
        walked = list(product(space.carrier.points, repeat=2))
    elif isinstance(pairs, Sampled):
        walked = sample_pairs(space, pairs.n, pairs.seed)
    elif isinstance(pairs, OrbitTrace):
        # Pair i holds points i and i + 1, so it is pair i - p once both
        # points are: from i = len(values) - 1 on, and for i - p >= 1.
        points = pairs.points
        p, total = points.period, max(len(points) - 2, 0)
        n = min(total, max(len(points.values) - 2, p))
        pts = points[: n + 2]
        return ((pts[i | 1], pts[(i + 1) & ~1]) for i in range(1, n + 1)), n - p, total - n
    else:
        walked = list(pairs)
    return walked, len(walked), 0


def check_hypothesis(space: Space, hyp: Hypothesis) -> None:
    """Raise ValueError unless a constant-coefficient R exceeds the space's K."""
    if isinstance(hyp, RLHypothesis) and not hyp.r_const > space.k_const:
        raise ValueError("r_const must exceed the space's k_const")


ExpansionTest = Callable[[Point, Point, Point, Point, float, float], Union[float, None]]


def expansion_test(hyp: Hypothesis, sharp: Callable[[Point, Point], float]) -> ExpansionTest:
    """The per-pair test of the expansion inequality d(Tx, Sy) >= coeff * d(x, y).

    The test takes (x, y, Tx, Sy, d(x, y), d(Tx, Sy)) and returns the
    right-hand side when it exceeds d(Tx, Sy) beyond slack, else None.
    Its form is picked here, once per hypothesis: R * d(x, y); the
    constant form with L > 0, whose coefficient R + L * min of the four
    diagonal residuals reads them through `sharp`; or the rate form.
    Pairs at distance zero are vacuously compliant under the rate form
    (phi is only defined for positive arguments), and a rate at or below
    its codomain floor raises PhiBelowKSquared.  exceeds(rhs, lhs) implies
    rhs > lhs, the cheaper exact test, which goes first.
    """
    if isinstance(hyp, RLHypothesis):
        r, l = hyp.r_const, hyp.l_const
        if l > 0:

            def residual_test(x, y, tx, sy, dxy, lhs):
                least, s2, s3, s4 = sharp(x, tx), sharp(y, sy), sharp(x, sy), sharp(y, tx)
                # What min() of the four returns: only a strictly smaller value replaces.
                if s2 < least:
                    least = s2
                if s3 < least:
                    least = s3
                if s4 < least:
                    least = s4
                rhs = (r + l * least) * dxy
                return rhs if rhs > lhs and exceeds(rhs, lhs) else None

            return residual_test

        def constant_test(x, y, tx, sy, dxy, lhs):
            rhs = r * dxy
            return rhs if rhs > lhs and exceeds(rhs, lhs) else None

        return constant_test

    phi, floor = hyp.phi, hyp.k_squared

    def rate_test(x, y, tx, sy, dxy, lhs):
        if dxy <= 0.0:
            return None
        rate = phi(dxy)
        if rate <= floor:
            raise PhiBelowKSquared(f"phi({dxy}) = {rate} is not above the floor {floor}")
        rhs = rate * dxy
        return rhs if rhs > lhs and exceeds(rhs, lhs) else None

    return rate_test


def audit(
    space: Space,
    maps: MapPair,
    hyp: Hypothesis,
    pairs: PairSource,
    limit: int | None = None,
) -> AuditReport:
    """Check the expansion inequality of either hypothesis form on ordered pairs.

    Pairs are ordered: x always goes through T and y through S, with no
    symmetrization.  `limit` stops collecting after that many violations
    (the pass flag is already decided), which bounds the work and the
    report of an audit that needs only a verdict or a few witnesses.
    `limit=1` is also the reference for the oracle's enumeration kernel,
    which stops at an instance's first violation: a phi below its floor
    on a later pair is then never evaluated, and never raised.

    Every walked pair is evaluated.  `Sampled` pairs are drawn lazily as
    they are walked, so the audit holds its violations, not its sample;
    without a `limit`, a large sample of an interval carrier is walked in
    two halves on two processes (`split_walk`), whose violations are
    joined in pair order.
    An `OrbitTrace` stands for the pairs its orbit consumed
    (`orbit_adjacent_pairs`), which repeat with its points: the pairs of
    its computed points (one period at least) are walked, and the
    outcomes of the last period repeat through the rest.  This relies on
    the maps, the distance and phi being functions.
    """
    check_hypothesis(space, hyp)
    test = expansion_test(hyp, partial(d_sharp, space))
    walk = partial(_walk_pairs, space.dist, maps.t_forward, maps.s_forward, test)
    walked, edge, repeats = _resolve_pairs(space, pairs)
    if isinstance(walked, Sample) and limit is None:
        first, second = split_walk(walked, lambda items: walk(items, edge, None)[0], _ship_pairs)
        if second is not None:
            first.extend(map(AuditViolation._make, second))
        return AuditReport(len(walked), tuple(first), not first)
    violations, checked, last = walk(walked, edge, limit)
    if last is not None:
        checked += repeats
        for at, violation in enumerate(islice(cycle(last), repeats) if any(last) else (), 1):
            if violation is not None:
                violations.append(violation)
                if limit is not None and len(violations) >= limit:
                    checked += at - repeats
                    break
    return AuditReport(checked, tuple(violations), not violations)


def _walk_pairs(
    d: Callable[[Point, Point], float],
    t_forward: Callable[[Point], Point],
    s_forward: Callable[[Point], Point],
    test: ExpansionTest,
    pairs: Iterable[tuple[Point, Point]],
    edge: int,
    limit: int | None,
) -> tuple[list, int, list | None]:
    """The loop of `audit` over `pairs`: the violations, the pairs
    checked, and the outcomes from pair `edge` on (None once `limit`
    violations stopped the walk)."""
    violations: list[AuditViolation] = []
    last: list = []
    checked = 0
    for x, y in pairs:
        checked += 1
        tx = t_forward(x)
        sy = s_forward(y)
        lhs = d(tx, sy)
        rhs = test(x, y, tx, sy, d(x, y), lhs)
        violation = None if rhs is None else AuditViolation(x, y, lhs, rhs)
        if checked > edge:
            last.append(violation)
        if violation is not None:
            violations.append(violation)
            if limit is not None and len(violations) >= limit:
                return violations, checked, None
    return violations, checked, last


def _ship_pairs(violations: list) -> list:
    """Audit violations as marshal writes them: tuples."""
    return list(map(tuple, violations))


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


class SolveReport(NamedTuple):
    candidate: Point
    t_residual: float
    s_residual: float
    trace: OrbitTrace
    certified: bool
    hypothesis_audit: AuditReport


def _probe_points(space: Space) -> list[Point]:
    if space.is_finite:
        return list(space.carrier.points)
    return space.carrier.anchors()


def solve(
    space: Space,
    maps: MapPair,
    hyp: Hypothesis,
    x0: Point,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SolveReport:
    """Run the inverse orbit and certify its endpoint as a common fixed point.

    The candidate is the final orbit point; residuals are the diagonal
    residuals d_sharp(z, Tz) and d_sharp(z, Sz), which vanish on genuine
    fixed points even when self-distances do not.  The hypothesis is
    audited along the orbit-adjacent pairs the construction actually
    consumed; failures there are reported but do not block certification,
    which requires only residuals within TOL_FIX and a certified
    geometric-decay verdict.  An orbit that consumed no pair still has its
    hypothesis checked: a constant-form R at or below K raises ValueError.
    """
    if not space.complete:
        raise ValueError(
            "space must be declared complete (set complete=True) before solving"
        )
    check_roundtrip(space, maps, _probe_points(space))
    trace = inverse_orbit(space, maps, x0, max_steps=max_steps)
    z = trace.points[-1]
    t_res = d_sharp(space, z, maps.t_forward(z))
    s_res = d_sharp(space, z, maps.s_forward(z))
    hyp_audit = audit(space, maps, hyp, trace)
    certified = (
        t_res <= TOL_FIX
        and s_res <= TOL_FIX
        and trace.cauchy.verdict is CauchyOutcome.CAUCHY_CERTIFIED
    )
    return SolveReport(z, t_res, s_res, trace, certified, hyp_audit)

