"""Numeric diagnostics for orbits and sequences in generalized metric spaces.

Three checks, each a finite-prefix version of a classical convergence
argument: a weighted polygon inequality along a chain of points, a
geometric-ratio criterion certifying that pairwise distances of a sequence
vanish, and a sandwich bound locating the limit of D(x_n, y) between
D(x, y) / K and K * D(x, y).  The sandwich reads an orbit's repeated tail
once, by the orbit's own `cycle_from`, which relies on the distance being
a function of its points.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, cycle, islice, repeat
from typing import Iterable, NamedTuple, NoReturn, Sequence

from .errors import HypothesisNotMet, NegativeDistance
from .numerics import exceeds, tail_window
from .spaces import Point, Space


class PolygonBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def polygon_bound(space: Space, chain: Sequence[Point]) -> PolygonBound:
    """Check D(x_n, x_0) against the K-weighted sum of link distances.

    Link i carries weight K**(i+1), except the final link which shares the
    weight K**(n-1) of the one before it.  A two-point chain uses weight K.
    """
    if len(chain) < 2:
        raise ValueError("chain must contain at least two points")
    d = space.dist
    k = space.k_const
    n = len(chain) - 1
    lhs = d(chain[-1], chain[0])
    if n == 1:
        rhs = k * d(chain[0], chain[1])
    else:
        rhs = sum(k ** (i + 1) * d(chain[i], chain[i + 1]) for i in range(n - 1))
        rhs += k ** (n - 1) * d(chain[n - 1], chain[n])
    return PolygonBound(lhs, rhs, not exceeds(lhs, rhs))


class CauchyOutcome(Enum):
    CAUCHY_CERTIFIED = "cauchy_certified"
    INCONCLUSIVE = "inconclusive"


class CauchyVerdict(NamedTuple):
    lambda_hat: float  # max per-step ratio over the inspected window
    threshold: float  # 1 / K
    verdict: CauchyOutcome
    per_step_ratios: tuple[float, ...]
    divergent_steps: tuple[int, ...] = ()


def _negative(v: float) -> NoReturn:
    raise NegativeDistance(f"negative successive distance {v}")


def geometric_cauchy_check(
    successive_distances: Sequence[float],
    k_const: float,
    noise_floor: float = 0.0,
    cycle_from: int | None = None,
) -> CauchyVerdict:
    """Certify geometric decay of successive distances.

    A strict ratio bound lambda < 1/K forces the pairwise distances of the
    underlying sequence to vanish in the limit, so the verdict is
    CauchyCertified exactly when the largest inspected ratio is below 1/K.
    The bound is sufficient, not necessary, hence the alternative verdict
    is Inconclusive rather than a refutation.

    Steps where both distances are at or below `noise_floor` still get a
    ratio but are excluded from lambda_hat: once an orbit has numerically
    collapsed its ratios carry quantization noise, not geometry.  A zero
    distance followed by a positive one is flagged as a divergent step.
    A ratio that cannot raise lambda_hat skips the noise-floor test; both
    tests are pure, so their order leaves lambda_hat as it is.  The first
    negative distance raises NegativeDistance from within the ratio pass.

    `cycle_from` is an orbit's (`OrbitTrace.cycle_from`): from that index
    on, every distance is the one two places before it.  The pass then
    stops after distance `cycle_from`, whose ratio is the second of the
    repeated period; every later ratio, and a divergent step among the
    last two, repeats with period two.  A repeated ratio tests the same
    two distances, so it cannot raise lambda_hat.  The result is that of
    the whole pass.
    """
    if len(successive_distances) < 2:
        raise ValueError("need at least two successive distances")
    if k_const < 1.0:
        raise ValueError("k_const must be >= 1")
    ratios: list[float] = []
    append = ratios.append
    divergent: list[int] = []
    lam = 0.0
    n = len(successive_distances)
    rest = iter(successive_distances)
    if cycle_from is not None:
        rest = islice(rest, cycle_from + 1)
    d0 = next(rest)
    if d0 < 0:
        _negative(d0)
    for i, d1 in enumerate(rest):
        if d1 < 0:
            _negative(d1)
        if d0 == 0.0:
            r = 0.0 if d1 == 0.0 else math.inf
            if d1 > 0.0:
                divergent.append(i)
        else:
            r = d1 / d0
        append(r)
        if r > lam and max(d0, d1) > noise_floor:
            lam = r
        d0 = d1
    if cycle_from is not None:
        c = cycle_from
        ratios.extend(islice(cycle(ratios[c - 2 :]), n - 1 - c))
        # Ratios c - 2 and c - 1 cannot both be divergent: one's second
        # distance is the other's first, positive in one and zero in the other.
        if divergent and divergent[-1] >= c - 2:
            divergent.extend(range(divergent[-1] + 2, n - 1, 2))
    threshold = 1.0 / k_const
    outcome = (
        CauchyOutcome.CAUCHY_CERTIFIED
        if lam < threshold
        else CauchyOutcome.INCONCLUSIVE
    )
    return CauchyVerdict(lam, threshold, outcome, tuple(ratios), tuple(divergent))


class SandwichBounds(NamedTuple):
    lower: float
    estimate: float
    upper: float
    holds: bool


def limit_sandwich_check(
    space: Space,
    seq: Sequence[Point],
    x: Point,
    ys: Iterable[Point],
    tol: float,
    cycle_from: int | None = None,
) -> list[SandwichBounds]:
    """Bound the tail average of D(x_n, y) by [D(x,y)/K, K*D(x,y)], per y.

    Requires the stronger entry condition D(x_n, x) -> 0 (not merely
    convergence in the self-distance sense); the tail of the prefix must
    already sit below `tol`, otherwise HypothesisNotMet is raised.  The
    condition does not depend on y, so it is tested once per sequence;
    each y then gets its own tail average.

    `cycle_from` is an orbit's (`OrbitTrace.cycle_from`) when `seq` is its
    points: from that index on every point is the same point as the one
    two places before it.  The tail is then read up to point `cycle_from`,
    the last computed one, or for one period when it starts past that
    point, and the last two distances read repeat through the rest.  This
    relies on the distance being a function: the same point in gives the
    same distance out.  So `math.fsum` adds the same values in the same
    order as over the whole tail, and a repeated value never changes a
    running `max`.  With None the whole tail is read point by point.
    """
    if not seq:
        raise ValueError("sequence prefix must be nonempty")
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = space.dist
    k = space.k_const
    n = len(seq)
    w = tail_window(n)
    start = n - w
    stop = n if cycle_from is None else min(n, max(start, cycle_from - 1) + 2)
    tail = seq[start:stop]
    worst = max(map(d, tail, repeat(x)))
    if worst >= tol:
        raise HypothesisNotMet(
            f"tail distance to the limit point is {worst}, not below {tol}"
        )
    out = []
    for y in ys:
        tail_dists = map(d, tail, repeat(y))
        if stop < n:
            read = list(tail_dists)
            tail_dists = chain(read, islice(cycle(read[-2:]), n - stop))
        estimate = math.fsum(tail_dists) / w
        dxy = d(x, y)
        lower = dxy / k
        upper = k * dxy
        holds = (lower - tol) <= estimate <= (upper + tol)
        out.append(SandwichBounds(lower, estimate, upper, holds))
    return out
