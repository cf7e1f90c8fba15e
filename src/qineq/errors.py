"""Exception types shared by the evaluators, envelopes and the audit harness."""

__all__ = ["QSeriesError", "InvalidArgumentError", "NonConvergentError", "CenterPoleError"]


class QSeriesError(Exception):
    """Base class for every library-specific failure."""


class InvalidArgumentError(QSeriesError, ValueError):
    """An argument violates a documented precondition."""


class NonConvergentError(QSeriesError, ArithmeticError):
    """An iterative computation could not meet its certified stopping rule."""


class CenterPoleError(InvalidArgumentError):
    """A Laurent evaluation was requested at its expansion center."""
