"""Exception types shared across the package."""


class NeumannLabError(Exception):
    """Base class for all package errors."""


class InvalidGeometryError(NeumannLabError):
    """Mesh construction received inconsistent or degenerate geometry."""


class LipschitzViolationError(InvalidGeometryError):
    """A graph profile exceeds its declared Lipschitz constant."""


class OutOfDomainError(NeumannLabError):
    """A query point lies outside the meshed domain."""


class NonEllipticSpecError(NeumannLabError):
    """Coefficient spec parameters would produce a non-elliptic field."""


class NonEllipticFieldError(NeumannLabError):
    """A constructed coefficient field failed its ellipticity verification."""


class CompatibilityError(NeumannLabError):
    """Volume and boundary data violate the pure-Neumann solvability condition.

    Carries the per-component residual of the integral balance.
    """

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"incompatible Neumann data, residual={residual}")


class NumericFailureError(NeumannLabError):
    """A numerical procedure failed: no convergence, a singular factor, or a
    residual above tolerance.

    ``diagnostics`` holds iteration counts or iterate history for post-mortem
    inspection.
    """

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class UnderResolvedError(NeumannLabError):
    """A requested scale is below what the mesh resolution supports."""


class ExponentRangeError(NeumannLabError):
    """A Lebesgue exponent lies outside its admissible open range."""


class InterfaceError(NeumannLabError):
    """Objects from mismatched discretizations were combined."""


class CoverageError(NeumannLabError):
    """A kernel set does not cover the poles required by an evaluation."""


class SingularityError(NeumannLabError):
    """An analytic kernel was evaluated on its diagonal."""


class UnsupportedError(NeumannLabError):
    """Operation is not defined for this domain mode."""
