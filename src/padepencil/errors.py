"""Exception taxonomy for the approximation pipeline.

Every failure mode raised by this package derives from
:class:`ApproximationError`, so callers that only care about
"the approximation could not be built" can catch one type.
"""


class ApproximationError(Exception):
    """Base class for all approximation failures."""


class ZeroPole(ApproximationError):
    """A pole-residue term was requested with a pole at the origin."""


class NonFinite(ApproximationError):
    """An input or intermediate quantity contained NaN or infinity."""


class ConvergenceFailure(ApproximationError):
    """An iterative factorization backend failed to converge."""


class RankDeficient(ApproximationError):
    """A least-squares system was numerically rank deficient."""


class DegenerateError(ApproximationError):
    """The direct linear system for the denominator is singular."""


class SingularVandermonde(ApproximationError):
    """The residue Vandermonde system is singular or non-finite."""


class DuplicatePole(ApproximationError):
    """Two poles in a pole-residue form coincide."""


class InsufficientCoefficients(ApproximationError):
    """The series is too short for the requested conformation."""


class PoleHit(ApproximationError):
    """Evaluation was requested exactly on a pole."""


class AllZero(ApproximationError):
    """Root finding was requested on the identically-zero polynomial."""


class Collapse(ApproximationError):
    """Filtering removed every pole and no polynomial part remains."""
