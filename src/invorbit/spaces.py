"""Generalized metric structures: carriers, sampling and axiom checking.

Four families of distance structure are supported, from most to least
restrictive: partial metrics, metric-like distances, b-metrics, and
b-metric-like distances.  The weakest family requires only

    D1  D(x, y) = 0  implies  x = y
    D2  D(x, y) = D(y, x)
    D3  D(x, y) <= K * (D(x, z) + D(z, y))    for a fixed K >= 1

so self-distances D(x, x) may be positive, and a sequence converges to x
when D(x, x_n) tends to D(x, x), not necessarily to zero.  A space carries
a declarative `kind` tag; conformance is never assumed from the tag, it is
established by `check_axioms`.

Point equality is ambient, not metric: on an interval carrier two floats
are the same point when they agree within TOL_POINT, on a finite carrier
identifiers are compared directly.  This matters because D1 is only an
implication; distinct points may sit at distance zero in unvetted tables.

Sampled checks draw from a seeded pool (the finite carrier, or 1024 points
of an interval) with exactly the indices of one rng.randrange(len(pool))
call per draw, read from bulk Mersenne words.  A pool holds fewer than
2**16 points, so each draw's test and index depend only on its word's
high 16 bits, which index a table that repeats each pool point; see
`_draws`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain, cycle, islice, product, repeat
from struct import unpack
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import ExhaustiveOnInfiniteCarrier, NoFiniteK
from .numerics import TOL_POINT, differs, exceeds

Point = Any
DistanceFn = Callable[[Point, Point], float]

SAMPLE_BOUND = 10.0  # default cap on the sampled range of an unbounded interval
GRID_POINTS = 33
POOL_SIZE = 1024
DRAW_CHUNK = 1 << 11  # Mersenne words per bulk draw
# The high 16 bits of each of DRAW_CHUNK little-endian words; struct
# compiles the format on its first use and caches it.
HIGH_HALVES = "<" + "2xH" * DRAW_CHUNK


class SpaceKind(Enum):
    PARTIAL_METRIC = "partial_metric"
    METRIC_LIKE = "metric_like"
    B_METRIC = "b_metric"
    B_METRIC_LIKE = "b_metric_like"


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteCarrier:
    """An ordered tuple of pairwise distinct point identifiers."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("finite carrier points must be pairwise distinct")
        if not self.points:
            raise ValueError("finite carrier must be nonempty")

    def equal(self, x: Point, y: Point) -> bool:
        return x == y

    def contains(self, x: Point) -> bool:
        return x in self.points


@dataclass(frozen=True)
class IntervalCarrier:
    """A real interval [lower, upper], upper possibly infinite.

    `sample_bound` caps the sampled range when `upper` is infinite; it has
    no effect on membership.
    """

    lower: float
    upper: float = math.inf
    sample_bound: float = SAMPLE_BOUND

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("interval carrier requires lower < upper")
        hi = self.sampling_upper
        if not (math.isfinite(hi) and self.lower < hi):
            raise ValueError("sampling range must be finite and nonempty")

    @property
    def sampling_upper(self) -> float:
        return self.upper if math.isfinite(self.upper) else self.sample_bound

    def equal(self, x: float, y: float) -> bool:
        return abs(x - y) <= TOL_POINT

    def contains(self, x: float) -> bool:
        return self.lower - TOL_POINT <= x <= self.upper + TOL_POINT

    def anchors(self) -> list[float]:
        """Boundary and unit points every sample pool must contain.

        Zero and one are included whenever they lie in range: they anchor
        the degenerate and unit-scale cases where violations of the
        relaxed triangle inequality typically surface.
        """
        out = [self.lower, self.sampling_upper]
        for special in (0.0, 1.0):
            if self.contains(special) and special <= self.sampling_upper:
                out.append(special)
        return sorted(set(out))


Carrier = Union[FiniteCarrier, IntervalCarrier]


# ---------------------------------------------------------------------------
# Space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Space:
    """A carrier, a distance function, a relaxation constant, and a kind tag.

    `complete` is a recorded assumption; completeness is not decidable
    numerically and is never verified.

    The package's record types are NamedTuples, which cost far less to
    define at import than dataclasses.  Five stay frozen dataclasses: this
    one, because callers copy a space with `dataclasses.replace` (the
    scenario layer, the oracle and tracing wrappers that swap in another
    `dist`), and `FiniteCarrier`, `IntervalCarrier`, `Sampled` and
    `RLHypothesis`, because each validates its fields in `__post_init__`,
    which a NamedTuple has no hook for.
    """

    carrier: Carrier
    dist: DistanceFn
    k_const: float = 1.0
    kind: SpaceKind = SpaceKind.B_METRIC_LIKE
    complete: bool = False

    def __post_init__(self):
        if self.k_const < 1.0:
            raise ValueError("k_const must be >= 1")

    @property
    def is_finite(self) -> bool:
        return isinstance(self.carrier, FiniteCarrier)


def d_sharp(space: Space, x: Point, y: Point) -> float:
    """|2 D(x,y) - D(x,x) - D(y,y)|: vanishes on the diagonal exactly.

    This is the residual used for fixed-point certification, since a fixed
    point z may legitimately have D(z, Tz) = D(z, z) > 0.  The self-distance
    terms are summed before subtracting so the result is exactly symmetric
    whenever the distance function is.  Where that overflows (distances
    above about 9e307), the residual is taken from the halved self-distances
    instead: halving is exact at that scale, and the result stays a number,
    not the nan of inf - inf.
    """
    return sharp_residual(space.dist(x, y), space.dist(x, x), space.dist(y, y))


def sharp_residual(dxy: float, dxx: float, dyy: float) -> float:
    """The arithmetic of `d_sharp` on the distances it reads, in that order."""
    sharp = abs(2.0 * dxy - (dxx + dyy))
    if math.isfinite(sharp):
        return sharp
    return 2.0 * abs(dxy - (0.5 * dxx + 0.5 * dyy))


# ---------------------------------------------------------------------------
# Checking strategies and sampling
# ---------------------------------------------------------------------------


class Exhaustive(NamedTuple):
    """Enumerate every point combination; finite carriers only.

    An instance is an empty tuple, so it is false: strategies are told
    apart by type, never by truth value.
    """


@dataclass(frozen=True)
class Sampled:
    """Draw `n` combinations from a seeded deterministic pool."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample size must be positive")


Strategy = Union[Exhaustive, Sampled]


def _pool_and_anchors(space: Space, rng: random.Random) -> tuple[list, list]:
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier):
        pts = list(carrier.points)
        return pts, pts
    anchors = carrier.anchors()
    lo, hi = carrier.lower, carrier.sampling_upper
    grid = [lo + (hi - lo) * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
    pool = list(dict.fromkeys(anchors + grid))
    while len(pool) < POOL_SIZE:
        pool.append(rng.uniform(lo, hi))
    return pool, anchors


def _spread_table(pool: list) -> list:
    """Each pool point `1 << (shift - 16)` times in a row (see `_draws`)."""
    shift = 32 - len(pool).bit_length()
    if shift < 16:
        raise ValueError(f"a sampling pool holds fewer than 2**16 points, not {len(pool)}")
    repeats = 1 << (shift - 16)
    spread = [None] * (len(pool) * repeats)
    for j in range(repeats):  # one slice assignment per repeat, not one item at a time
        spread[j::repeats] = pool
    return spread


def _draws(rng: random.Random, pool: list, count: int) -> Iterator[list]:
    """At least `count` draws of pool[rng.randrange(len(pool))], in chunks.

    For a pool of size s, randrange(s) keeps the top s.bit_length() bits
    of one 32-bit Mersenne word and redraws while that value is >= s.
    getrandbits(32 * m) returns m such words, least significant first, so
    keeping `w >> shift` for every word `w < s << shift` yields the same
    indices, where shift = 32 - s.bit_length().

    Pools hold fewer than 2**16 points (a scenario's finite carrier has at
    most 100, an interval pool POOL_SIZE), so shift >= 16 and `s << shift`
    has 16 zero low bits: `w < s << shift` holds exactly when the high half
    `w >> 16` is below `s << (shift - 16)`, and `w >> shift` is that half
    shifted right by `shift - 16`.  So each word's high half alone indexes
    a spread table that holds each point `1 << (shift - 16)` times in a
    row, 2**15 to 2**16 - 1 entries, with the same indices.  Words are
    read DRAW_CHUNK at a time, which bounds the transient memory; the
    caller owns rng, so whole chunks are drawn and any surplus dropped.
    """
    spread = _spread_table(pool)
    size = len(spread)
    while count > 0:
        words = rng.getrandbits(32 * DRAW_CHUNK).to_bytes(4 * DRAW_CHUNK, "little")
        got = [spread[h] for h in unpack(HIGH_HALVES, words) if h < size]
        count -= len(got)
        yield got


class Sample:
    """`n` points (arity 1) or ordered `arity`-tuples from a seeded pool.

    Every anchor combination comes first, then tuples of pool draws, each
    draw equivalent to one rng.randrange(len(pool)) call in tuple order.
    The sample is lazy: each iteration builds the pool and draws afresh,
    DRAW_CHUNK words at a time, so it yields the same items every time
    and holds one chunk of draws, never the whole sample.  Draws are read
    from each word's high half through a table that repeats each pool
    point (see `_draws`; 32,768 entries for the 1024-point interval pool),
    with the indices, and so the items, of the randrange loop.
    """

    __slots__ = ("space", "n", "seed", "arity")

    def __init__(self, space: Space, n: int, seed: int, arity: int):
        self.space, self.n, self.seed, self.arity = space, n, seed, arity

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator:
        n, arity = self.n, self.arity
        rng = random.Random(self.seed)
        pool, anchors = _pool_and_anchors(self.space, rng)
        if arity == 1:
            lead = anchors[:n]
        else:
            lead = list(islice(product(anchors, repeat=arity), n))
        count = (n - len(lead)) * arity
        flat = islice(chain.from_iterable(_draws(rng, pool, count)), count)
        return chain(lead, flat if arity == 1 else zip(*[flat] * arity))


def sample(space: Space, n: int, seed: int, arity: int) -> Sample:
    """The lazy sample of `n` points or `arity`-tuples (see `Sample`)."""
    return Sample(space, n, seed, arity)


# The fixed-arity names stay public; cli, solver and check_axioms call them.
def sample_points(space: Space, n: int, seed: int) -> Sample:
    return sample(space, n, seed, 1)


def sample_pairs(space: Space, n: int, seed: int) -> Sample:
    return sample(space, n, seed, 2)


def sample_triples(space: Space, n: int, seed: int) -> Sample:
    return sample(space, n, seed, 3)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


class AxiomViolation(NamedTuple):
    axiom_id: str
    witness: tuple
    lhs: float
    rhs: float


class AxiomReport(NamedTuple):
    passed: bool
    violations: tuple[AxiomViolation, ...]
    checked_pairs: int
    checked_triples: int


# Per kind, the ids of its symmetry, zero-distance and triangle axioms; a
# partial metric has no zero-distance axiom (P1 and P2 take its place).
_AXIOM_IDS = {
    SpaceKind.PARTIAL_METRIC: ("P3", None, "P4"),
    SpaceKind.METRIC_LIKE: ("sigma2", "sigma1", "sigma3"),
    SpaceKind.B_METRIC: ("D2", "D1", "D3"),
    SpaceKind.B_METRIC_LIKE: ("D2", "D1", "D3"),
}


def _exhaustive_points(space: Space) -> tuple[Point, ...]:
    if not space.is_finite:
        raise ExhaustiveOnInfiniteCarrier("exhaustive axiom checking needs a finite carrier")
    return space.carrier.points


def _pair_axioms(space: Space, found: list, sampled: bool) -> Callable[[Point, Point], float]:
    """The pair-axiom test of `space`, as a function of (x, y).

    It appends to `found` the violations at (x, y) of nonnegativity,
    symmetry and zero distance (P1 and P2 on a partial metric), and
    returns d(x, y).  A nan d(x, y) violates nonnegativity, since every
    other test compares false against it; P1 reads a nan self-distance
    as equal to nothing.  A slack test sits behind the exact comparison
    it implies: exceeds(a, b) needs a > b, differs(a, b) needs a != b.
    `table_admitted_k_values` applies the same tests to the table of a
    b-metric-like space; a test compares the two.

    An exhaustive check reads every ordered pair as some (x, y), so it
    tests each nan there.  A `sampled` one also tests the other reads it
    makes, d(y, x) and, on a partial metric, d(x, x) and d(y, y): a nan
    one is a nonneg violation at its own pair, unless x == y makes it
    d(x, y) again.  Each nan test sits inside a comparison the check
    makes anyway (d(x, y) != d(y, x), not d(x, x) <= d(x, y)), except
    the one on d(y, y).
    """
    d = space.dist
    equal = space.carrier.equal
    add = found.append
    sym_id, zero_id, _ = _AXIOM_IDS[space.kind]
    partial = space.kind is SpaceKind.PARTIAL_METRIC

    def check(x: Point, y: Point) -> float:
        dxy = d(x, y)
        if not dxy >= 0.0 and (dxy != dxy or exceeds(0.0, dxy)):
            add(AxiomViolation("nonneg", (x, y), dxy, 0.0))
        dyx = d(y, x)
        if dxy != dyx:
            if dyx != dyx:
                if sampled and x != y:
                    add(AxiomViolation("nonneg", (y, x), dyx, 0.0))
            elif differs(dxy, dyx):
                add(AxiomViolation(sym_id, (x, y), dxy, dyx))
        if partial:
            dxx = d(x, x)
            dyy = d(y, y)
            if (
                (dxx == dxy or (not differs(dxx, dxy) and dxx == dxx))
                and (dyy == dxy or (not differs(dyy, dxy) and dyy == dyy))
                and not equal(x, y)
            ):
                add(AxiomViolation("P1", (x, y), dxy, dxx))
            if not dxx <= dxy:
                if dxx != dxx:
                    if sampled and x != y:
                        add(AxiomViolation("nonneg", (x, x), dxx, 0.0))
                elif exceeds(dxx, dxy):
                    add(AxiomViolation("P2", (x, y), dxx, dxy))
            if sampled and dyy != dyy and x != y:
                add(AxiomViolation("nonneg", (y, y), dyy, 0.0))
        elif dxy == 0.0 and not equal(x, y):
            add(AxiomViolation(zero_id, (x, y), dxy, 0.0))
        return dxy

    return check


def _d1_violations(space: Space, singles: Iterable[Point], found: list) -> None:
    """Append to `found` the D1 violations of a b-metric on `singles`."""
    d = space.dist
    for x in singles:
        dxx = d(x, x)
        if exceeds(dxx, 0.0):
            found.append(AxiomViolation("D1", (x, x), dxx, 0.0))


def _noted(triples: Iterable[tuple], seen: dict) -> Iterator[tuple]:
    """`triples`, each of whose points is entered into `seen` as it
    passes, so that once they are consumed `seen` holds the points in
    first-occurrence order, as dict.fromkeys(chain.from_iterable(triples))
    would."""
    for t in triples:
        x, y, z = t
        seen[x] = seen[y] = seen[z] = None
        yield t


def _triangle_fails(
    lhs: float, rhs: float, detour: float, factor: float, subtract_mid: bool
) -> bool:
    """The triangle test beyond slack, false on a nan; callers test
    `lhs >= rhs` or `not lhs < rhs` first.

    Also the ratio min_valid_k maximizes: at subnormal scale K * detour can
    round back onto lhs, where the ratio still separates K from
    K * (1 - 1e-9).  The product test stays for ratios that overflow.  A
    ratio above K means K * detour < lhs exactly, so rhs <= lhs: both tests
    need lhs >= rhs, and the ratio test can fire at equality.
    """
    return exceeds(lhs, rhs) or (
        not subtract_mid and detour > 0.0 and exceeds(lhs / detour, factor)
    )


def _triangle_factor(kind: SpaceKind, k_const: float) -> float:
    return k_const if kind in (SpaceKind.B_METRIC, SpaceKind.B_METRIC_LIKE) else 1.0


def check_axioms(space: Space, strategy: Strategy) -> AxiomReport:
    """Audit the kind-specific distance axioms and collect every violation.

    For the triangle-type violations the witness is stored as (x, y, z)
    with z the midpoint of the detour.  One loop serves both strategies:
    it checks the pair axioms of each (x, y) once, then the triangle for
    each midpoint z.  An exhaustive check pairs every (x, y) with every
    point; a sampled one checks the leading pair of each triple with its
    own z, so the anchor pairs are always covered.  Its triples are drawn
    lazily and read once, by that loop, which on a b-metric also collects
    the distinct points D1 checks; no triple is held past its turn.  Each
    d(x, y) is read once and serves both the pair axioms and the triangle,
    which relies on the distance being a function of its points.  A sampled check reads
    its legs d(x, z), d(z, y) (and d(z, z)) only there, so it counts a
    triangle whose rhs is nan as failed.  Violations come out as pair
    violations, then D1 (b-metrics only), then triangle violations.
    Deterministic for a fixed seed.
    """
    d = space.dist
    kind = space.kind
    if isinstance(strategy, Exhaustive):
        pts = singles = _exhaustive_points(space)
        triples: Iterable[tuple] = product(pts, repeat=3)
        # In product order each (x, y) leads the run of its len(pts) midpoints.
        leads: Iterable[bool] = cycle((True,) + (False,) * (len(pts) - 1))
        checked_pairs, checked_triples = len(pts) ** 2, len(pts) ** 3
    elif isinstance(strategy, Sampled):
        triples = sample_triples(space, strategy.n, strategy.seed)
        leads = repeat(True)
        checked_pairs = checked_triples = len(triples)
        singles = {}
        if kind is SpaceKind.B_METRIC:
            triples = _noted(triples, singles)
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")

    sampled = isinstance(strategy, Sampled)
    violations: list[AxiomViolation] = []
    triangles: list[AxiomViolation] = []
    check_pair = _pair_axioms(space, violations, sampled)
    tri_id = _AXIOM_IDS[kind][2]
    factor = _triangle_factor(kind, space.k_const)
    subtract_mid = kind is SpaceKind.PARTIAL_METRIC
    for (x, y, z), lead in zip(triples, leads):
        if lead:
            lhs = check_pair(x, y)
        detour = d(x, z) + d(z, y)
        rhs = factor * detour
        if subtract_mid:
            rhs -= d(z, z)
        # `not lhs < rhs` costs what `lhs >= rhs` does, and lets a sampled
        # check count a nan rhs (from a nan leg it reads nowhere else) as a failure.
        if not lhs < rhs and (
            _triangle_fails(lhs, rhs, detour, factor, subtract_mid) or (sampled and rhs != rhs)
        ):
            triangles.append(AxiomViolation(tri_id, (x, y, z), lhs, rhs))
    if kind is SpaceKind.B_METRIC:
        _d1_violations(space, singles, violations)
    violations.extend(triangles)

    return AxiomReport(
        passed=not violations,
        violations=tuple(violations),
        checked_pairs=checked_pairs,
        checked_triples=checked_triples,
    )


def table_admitted_k_values(
    rows: Sequence[Sequence[float]], k_values: Sequence[float]
) -> list[float]:
    """The K in `k_values`, each at least 1, for which `check_axioms(space,
    Exhaustive())` passes at k_const = K, where `space` is b-metric-like
    on a finite carrier (p_0, ..., p_{n-1}) with d(p_i, p_j) = rows[i][j].

    The tests are those of `_pair_axioms` and the triangle of
    `check_axioms`, each exact guard before its slack test, read from the
    table.  The points of a finite carrier are pairwise distinct, so p_i
    equals p_j exactly when i == j.  The pair axioms do not depend on K
    and are tested once; each distinct triangle (d(x, y), detour) is
    formed once and tested per K.
    """
    for i, row in enumerate(rows):
        for j, dxy in enumerate(row):
            if not dxy >= 0.0 and (dxy != dxy or exceeds(0.0, dxy)):
                return []  # nonneg, or nan
            dyx = rows[j][i]
            if dxy != dyx and differs(dxy, dyx):
                return []  # symmetry
            if dxy == 0.0 and i != j:
                return []  # zero distance
    index_pairs = list(product(range(len(rows)), repeat=2))
    reads = {(row[y], row[z] + rows[z][y]) for row in rows for y, z in index_pairs}
    admitted = []
    for k in k_values:
        for lhs, detour in reads:
            rhs = k * detour
            if lhs >= rhs and _triangle_fails(lhs, rhs, detour, k, False):
                break
        else:
            admitted.append(k)
    return admitted


def min_valid_k(space: Space) -> float:
    """Smallest relaxation constant making the triangle axiom hold.

    Returns max(1, sup over triples of D(x,y) / (D(x,z) + D(z,y))) by
    exhaustive maximization; requires a finite carrier.
    """
    if not space.is_finite:
        raise ExhaustiveOnInfiniteCarrier("min_valid_k needs a finite carrier")
    d = space.dist
    best = 1.0
    for x, y, z in product(space.carrier.points, repeat=3):
        num = d(x, y)
        den = d(x, z) + d(z, y)
        if den == 0.0:
            if num > 0.0:
                raise NoFiniteK(
                    f"positive distance {num} with zero-length detour at "
                    f"({x!r}, {y!r}, {z!r})"
                )
            continue
        ratio = num / den
        if ratio > best:
            best = ratio
    return best


# ---------------------------------------------------------------------------
# Built-in space families
# ---------------------------------------------------------------------------


def sqrt_square_space(k_const: float = 2.0, sample_bound: float = SAMPLE_BOUND) -> Space:
    """(sqrt(x) + sqrt(y))**2 on [0, inf): self-distance 4x, valid with K = 2.

    A square past the largest double is inf, where `**` would raise.
    """

    def dist(x, y):
        try:
            return (math.sqrt(x) + math.sqrt(y)) ** 2
        except OverflowError:
            return math.inf

    return Space(
        IntervalCarrier(0.0, math.inf, sample_bound),
        dist,
        k_const,
        SpaceKind.B_METRIC_LIKE,
        complete=True,
    )


def two_point_sigma_space() -> Space:
    """{0, 1} with sigma(0,0) = 2 and 1 elsewhere: metric-like, not partial."""

    def dist(x, y):
        return 2.0 if x == 0 and y == 0 else 1.0

    return Space(FiniteCarrier((0, 1)), dist, 1.0, SpaceKind.METRIC_LIKE, complete=True)


def abs_metric_space(
    lower: float = 0.0, upper: float = math.inf, sample_bound: float = SAMPLE_BOUND
) -> Space:
    """|x - y|: a genuine metric, tagged as a b-metric with K = 1."""
    return Space(
        IntervalCarrier(lower, upper, sample_bound),
        lambda x, y: abs(x - y),
        1.0,
        SpaceKind.B_METRIC,
        complete=True,
    )


def max_partial_space(sample_bound: float = SAMPLE_BOUND) -> Space:
    """max(x, y) on [0, inf): the standard partial metric with P(x,x) = x.

    The conditional is what `max(x, y)` returns, x unless y is strictly
    greater, without the cost of a builtin call (see `numerics`).
    """
    return Space(
        IntervalCarrier(0.0, math.inf, sample_bound),
        lambda x, y: float(y if y > x else x),
        1.0,
        SpaceKind.PARTIAL_METRIC,
        complete=True,
    )


def sum_metric_like_space(sample_bound: float = SAMPLE_BOUND) -> Space:
    """x + y on [0, inf): metric-like with positive self-distances."""
    return Space(
        IntervalCarrier(0.0, math.inf, sample_bound),
        lambda x, y: float(x + y),
        1.0,
        SpaceKind.METRIC_LIKE,
        complete=True,
    )


def square_diff_space(k_const: float = 2.0, sample_bound: float = SAMPLE_BOUND) -> Space:
    """(x - y)**2 on [0, inf): a b-metric needing K = 2."""
    return Space(
        IntervalCarrier(0.0, math.inf, sample_bound),
        lambda x, y: (x - y) ** 2,
        k_const,
        SpaceKind.B_METRIC,
        complete=True,
    )


def table_space(
    labels: Sequence[Point],
    matrix: Sequence[Sequence[float]],
    k_const: float = 1.0,
    kind: SpaceKind = SpaceKind.B_METRIC_LIKE,
) -> Space:
    """A finite space, declared complete, from an n x n symmetric nonnegative matrix."""
    n = len(labels)
    rows = [tuple(float(v) for v in row) for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and match the label count")
    for i in range(n):
        for j in range(n):
            if rows[i][j] < 0:
                raise ValueError("matrix entries must be nonnegative")
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix must be symmetric")
    index = {label: i for i, label in enumerate(labels)}

    def dist(x, y):
        return rows[index[x]][index[y]]

    return Space(FiniteCarrier(tuple(labels)), dist, k_const, kind, complete=True)
