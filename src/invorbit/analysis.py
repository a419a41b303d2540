"""Numeric diagnostics for orbits and sequences in generalized metric spaces.

Three checks, each a finite-prefix version of a classical convergence
argument: a weighted polygon inequality along a chain of points, a
geometric-ratio criterion certifying that pairwise distances of a sequence
vanish, and a sandwich bound locating the limit of D(x_n, y) between
D(x, y) / K and K * D(x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Sequence

from .errors import HypothesisNotMet, NegativeDistance
from .numerics import exceeds, tail_window
from .spaces import Point, Space


@dataclass(frozen=True)
class PolygonBound:
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


@dataclass(frozen=True)
class CauchyVerdict:
    lambda_hat: float  # max per-step ratio over the inspected window
    threshold: float  # 1 / K
    verdict: CauchyOutcome
    per_step_ratios: tuple[float, ...]
    divergent_steps: tuple[int, ...] = ()


def geometric_cauchy_check(
    successive_distances: Sequence[float],
    k_const: float,
    noise_floor: float = 0.0,
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
    """
    if len(successive_distances) < 2:
        raise ValueError("need at least two successive distances")
    if k_const < 1.0:
        raise ValueError("k_const must be >= 1")
    for v in successive_distances:
        if v < 0:
            raise NegativeDistance(f"negative successive distance {v}")
    ratios: list[float] = []
    divergent: list[int] = []
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
        CauchyOutcome.CAUCHY_CERTIFIED
        if lam < threshold
        else CauchyOutcome.INCONCLUSIVE
    )
    return CauchyVerdict(lam, threshold, outcome, tuple(ratios), tuple(divergent))


@dataclass(frozen=True)
class SandwichBounds:
    lower: float
    estimate: float
    upper: float
    holds: bool


def limit_sandwich_check(
    space: Space, seq: Sequence[Point], x: Point, ys: Iterable[Point], tol: float
) -> list[SandwichBounds]:
    """Bound the tail average of D(x_n, y) by [D(x,y)/K, K*D(x,y)], per y.

    Requires the stronger entry condition D(x_n, x) -> 0 (not merely
    convergence in the self-distance sense); the tail of the prefix must
    already sit below `tol`, otherwise HypothesisNotMet is raised.  The
    condition does not depend on y, so it is tested once per sequence;
    each y then gets its own tail average.
    """
    if not seq:
        raise ValueError("sequence prefix must be nonempty")
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = space.dist
    k = space.k_const
    w = tail_window(len(seq))
    tail = seq[len(seq) - w :]
    worst = max(map(d, tail, repeat(x)))
    if worst >= tol:
        raise HypothesisNotMet(
            f"tail distance to the limit point is {worst}, not below {tol}"
        )
    out = []
    for y in ys:
        estimate = math.fsum(map(d, tail, repeat(y))) / len(tail)
        dxy = d(x, y)
        lower = dxy / k
        upper = k * dxy
        holds = (lower - tol) <= estimate <= (upper + tol)
        out.append(SandwichBounds(lower, estimate, upper, holds))
    return out
