"""Generalized metric structures and inverse-orbit fixed point machinery.

The library covers four distance families (partial metric, metric-like,
b-metric, b-metric-like), audits their axioms on finite or sampled
carriers, constructs backward orbits through preimages of onto map pairs,
certifies convergence to common fixed points, and brute-force verifies
the whole pipeline on small finite spaces.
"""

__version__ = "0.1.0"

from .analysis import (
    CauchyOutcome,
    CauchyVerdict,
    PolygonBound,
    SandwichBounds,
    geometric_cauchy_check,
    limit_sandwich_check,
    polygon_bound,
)
from .errors import (
    CarrierTooLarge,
    ExhaustiveOnInfiniteCarrier,
    HypothesisNotMet,
    InvorbitError,
    NegativeDistance,
    NoFiniteK,
    PhiBelowKSquared,
    PreimageBroken,
    ScenarioError,
)
from .oracle import (
    SweepReport,
    falsification_sweep,
)
from .solver import (
    AuditReport,
    AuditViolation,
    Hypothesis,
    MapPair,
    OrbitTrace,
    PhiHypothesis,
    RLHypothesis,
    SolveReport,
    Termination,
    affine_phi,
    audit,
    identity_map,
    inverse_orbit,
    linear_map,
    orbit_adjacent_pairs,
    permutation_map,
    solve,
)
from .spaces import (
    AxiomReport,
    AxiomViolation,
    Carrier,
    Exhaustive,
    FiniteCarrier,
    IntervalCarrier,
    Sampled,
    Space,
    SpaceKind,
    abs_metric_space,
    check_axioms,
    d_sharp,
    max_partial_space,
    min_valid_k,
    sample,
    sample_pairs,
    sample_points,
    sample_triples,
    sqrt_square_space,
    square_diff_space,
    sum_metric_like_space,
    table_space,
    two_point_sigma_space,
)
