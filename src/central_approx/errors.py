"""Exception hierarchy shared across the package.

Validation failures (bad inputs, violated guards) and numerical failures
(instabilities, non-convergence) are kept in separate branches so the CLI
can map them to distinct exit codes.
"""


class CentralApproxError(Exception):
    """Base class for package errors."""


class ValidationFailure(CentralApproxError):
    """Bad input: malformed config, violated precondition, failed guard."""


class GuardError(ValidationFailure):
    """A size guard would be exceeded and no override was given."""


class NumericalFailure(CentralApproxError):
    """Computation started but cannot produce a trustworthy result."""


class InstabilityError(NumericalFailure):
    """Closed-form correction undefined (non-positive log argument)."""


class ATInstabilityError(InstabilityError):
    """I - R B R at a point is singular or not positive definite (the point
    is not a maximum): the Gaussian constant factor does not exist there."""


class NonConvergenceError(NumericalFailure):
    """Fixed-point solver exhausted its iteration budget on every start."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BoundaryMaximizerError(NumericalFailure):
    """Variational maximizer sits on the simplex boundary, where the
    fluctuation expansion is invalid."""
