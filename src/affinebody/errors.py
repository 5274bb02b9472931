"""Exception hierarchy.

ConfigError maps to exit code 2, domain errors to 3, numeric failures to 4.
"""


class AffineBodyError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(AffineBodyError):
    """Malformed or contradictory input configuration."""

    exit_code = 2


class DomainError(AffineBodyError):
    """Input outside the mathematical domain of an operation."""

    exit_code = 3


class SingularConfiguration(DomainError):
    """Configuration matrix is singular or too ill-conditioned to factor."""


class DegenerateInertia(DomainError):
    """Coincident deformation invariants make the requested map non-invertible."""


class InvalidLabel(DomainError):
    """Angular momentum label is not an admissible (half-)integer."""


class UnknownObservable(DomainError):
    """Observable tag not recognised by the bracket engine."""


class SingularWeight(DomainError):
    """Integration weight vanishes at a grid node with a nonvanishing coupling."""


class ShapeMismatch(DomainError):
    """Array arguments have incompatible shapes."""


class NumericFailure(AffineBodyError):
    """Numerical procedure failed to reach its target accuracy."""

    exit_code = 4


class StepFailure(NumericFailure):
    """An integration step failed: the adaptive step underflowed, the state
    turned non-finite, or an attitude left the rotation group."""


class ConvergenceFailure(NumericFailure):
    """Eigenvalue iteration did not converge."""


class GridTooCoarse(NumericFailure):
    """Grid resolution below the minimum needed for a meaningful discretisation."""
