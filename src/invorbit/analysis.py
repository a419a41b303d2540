"""Numeric diagnostics for orbits and sequences in generalized metric spaces.

Three checks, each a finite-prefix version of a classical convergence
argument: a weighted polygon inequality along a chain of points, a
geometric-ratio criterion certifying that pairwise distances of a sequence
vanish, and a sandwich bound locating the limit of D(x_n, y) between
D(x, y) / K and K * D(x, y).  The Cauchy and sandwich checks read an
orbit's `Cycled` columns through their computed part plus one period.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from heapq import merge
from itertools import chain, cycle, islice, repeat
from typing import Iterable, NamedTuple, NoReturn

from .errors import HypothesisNotMet, NegativeDistance
from .numerics import exceeds, tail_window
from .spaces import Point, Space


class Cycled(Sequence):
    """`length` items stored as their computed `values` and a `period`.

    Item i is values[i] below len(values) and item i - period from there
    on, so the last `period` values repeat in turn without being stored:
    the one tail rule of an orbit's columns (`OrbitTrace`).  Slices are tuples.
    """

    __slots__ = ("values", "length", "period")

    def __init__(self, values: Sequence, length: int, period: int = 0):
        self.values, self.length, self.period = values, length, period

    @classmethod
    def of(cls, seq: Sequence) -> Cycled:
        """`seq` if it is a column, else a column whose values are all of `seq`."""
        return seq if isinstance(seq, cls) else cls(seq, len(seq))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Cycled({self.values!r}, {self.length}, {self.period})"

    def __eq__(self, other) -> bool:  # as stored, so records holding columns compare
        state = (self.values, self.length, self.period)
        return type(other) is Cycled and state == (other.values, other.length, other.period)

    def __hash__(self) -> int:
        return hash((self.values, self.length, self.period))

    def __iter__(self):
        values, n = self.values, len(self.values)
        return chain(values, islice(cycle(values[n - self.period :]), self.length - n))

    def __getitem__(self, i):
        values, n = self.values, len(self.values)
        if isinstance(i, slice):
            start, stop, step = i.indices(self.length)
            if step == 1 and stop <= n:
                return tuple(values[start:stop])
            return tuple(map(self.__getitem__, range(start, stop, step)))
        i = range(self.length)[i]  # a negative index counts from the end
        return values[i] if i < n else values[n - self.period + (i - n) % self.period]

    def tail(self, start: int) -> Cycled:
        """Items `start` on, as a column that stores the least run holding each of them."""
        stop = min(self.length, max(start + self.period, len(self.values)))
        return Cycled(self[start:stop], self.length - start, self.period)


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

    Of a `Cycled` column the pass reads the computed distances and the
    first repeated one; the ratios, and the divergent steps among them,
    repeat with its period.  A repeated ratio tests two distances already
    tested, so the result is that of the whole pass.
    """
    dists = Cycled.of(successive_distances)
    n = len(dists)
    if n < 2:
        raise ValueError("need at least two successive distances")
    if k_const < 1.0:
        raise ValueError("k_const must be >= 1")
    ratios: list[float] = []
    append = ratios.append
    divergent: list[int] = []
    lam = 0.0
    rest = islice(dists, len(dists.values) + 1)
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
    p, cycle_start = dists.period, len(ratios) - dists.period
    divergent.extend(merge(*(range(j + p, n - 1, p) for j in divergent if j >= cycle_start)))
    threshold = 1.0 / k_const
    outcome = CauchyOutcome.CAUCHY_CERTIFIED if lam < threshold else CauchyOutcome.INCONCLUSIVE
    return CauchyVerdict(lam, threshold, outcome, Cycled(tuple(ratios), n - 1, p), tuple(divergent))


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
) -> list[SandwichBounds]:
    """Bound the tail average of D(x_n, y) by [D(x,y)/K, K*D(x,y)], per y.

    Requires the stronger entry condition D(x_n, x) -> 0 (not merely
    convergence in the self-distance sense); the tail of the prefix must
    already sit below `tol`, otherwise HypothesisNotMet is raised.  The
    condition does not depend on y, so it is tested once per sequence;
    each y then gets its own tail average.

    The tail of a `Cycled` sequence, an orbit's points, is read through
    the least run that holds each tail point (`Cycled.tail`), and the
    distances repeat with the points, since the distance is a function.
    So `math.fsum` adds the values of the whole tail in order.
    """
    if not seq:
        raise ValueError("sequence prefix must be nonempty")
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = space.dist
    k = space.k_const
    w = tail_window(len(seq))
    tail = Cycled.of(seq).tail(len(seq) - w)
    worst = max(map(d, tail.values, repeat(x)))
    if worst >= tol:
        raise HypothesisNotMet(f"tail distance to the limit point is {worst}, not below {tol}")
    out = []
    for y in ys:
        estimate = math.fsum(Cycled((*map(d, tail.values, repeat(y)),), w, tail.period)) / w
        dxy = d(x, y)
        lower = dxy / k
        upper = k * dxy
        holds = (lower - tol) <= estimate <= (upper + tol)
        out.append(SandwichBounds(lower, estimate, upper, holds))
    return out
