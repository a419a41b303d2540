"""Exception types raised across the library."""


class InvorbitError(Exception):
    """Base class for all library-specific failures."""


class ExhaustiveOnInfiniteCarrier(InvorbitError):
    """Exhaustive enumeration was requested but the carrier is an interval."""


class NoFiniteK(InvorbitError):
    """No finite relaxation constant exists: a positive distance admits a
    zero-length detour through some midpoint."""


class NegativeDistance(InvorbitError):
    """A distance value was negative where nonnegativity is required."""


class HypothesisNotMet(InvorbitError):
    """A diagnostic's entry condition failed: the sequence tail does not
    vanish toward the reference point."""


class PreimageBroken(InvorbitError):
    """A preimage selector failed its round-trip check forward(preimage(y)) == y."""


class PhiBelowKSquared(InvorbitError):
    """A rate function value fell to or below its K**2 codomain floor."""


class CarrierTooLarge(InvorbitError):
    """Exhaustive map-pair enumeration was requested beyond the size cap."""


class ScenarioError(InvorbitError):
    """A scenario document is malformed or names unknown built-ins."""
