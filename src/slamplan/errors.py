"""Exception types shared across the package."""


class SlamplanError(Exception):
    """Base class for all package errors."""


class InputError(SlamplanError):
    """Malformed or inconsistent input document."""


class DisconnectedError(InputError):
    """Graph is not connected; message names an unreachable vertex."""


class CovarianceError(InputError):
    """A covariance matrix is not symmetric positive-definite."""


class RankDeficientError(SlamplanError):
    """Factorization hit a pivot below tolerance (disconnected pose graph)."""


class DivergenceError(SlamplanError):
    """Optimizer could not decrease the objective even with damping."""


class MismatchError(SlamplanError):
    """Plan, world and prior graph disagree on topology."""
