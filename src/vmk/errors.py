"""Exception types shared across the package."""


class VmkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(VmkError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class GridMismatchError(VmkError):
    """Two discretized objects live on different time grids."""


class SingularOperatorError(VmkError):
    """A linear solve against (Id - A) hit a numerically singular matrix.

    The attached condition number is cond_1(Id - A), inf when exactly singular.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class RiccatiBlowUpError(VmkError):
    """A Riccati solution exceeded the finite cap before the horizon.

    ``time`` is the first grid time at which the cap was crossed.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ModelAssumptionError(VmkError):
    """Model coefficients violate a structural assumption.

    ``eigenvalue`` carries the offending extreme eigenvalue when the
    violated assumption is a semidefiniteness constraint.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateMarketError(VmkError):
    """The mean-variance problem degenerates (no risk premium to trade on)."""


class SingularVolatilityError(VmkError):
    """The volatility matrix is singular; amounts cannot be mapped to fractions."""


class InternalConsistencyError(VmkError):
    """A quantity violated a bound that holds for exact solutions."""


class MemoryCapError(VmkError):
    """A requested discretization exceeds the configured memory cap."""

    def __init__(self, message, limit=None):
        super().__init__(message)
        self.limit = limit


class ConfigError(VmkError):
    """A run configuration file is malformed or inconsistent."""
