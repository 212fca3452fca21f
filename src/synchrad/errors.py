"""Exception types shared by all synchrad modules."""


class SynchradError(Exception):
    """Base class for all package-specific errors."""


class RangeError(SynchradError, ValueError):
    """Argument outside the range over which a result is known to be accurate."""


class DomainError(SynchradError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(SynchradError, RuntimeError):
    """A quadrature or series failed to reach the requested tolerance.

    Carries the best estimate obtained so far in ``best_estimate`` and the
    achieved error estimate in ``error_estimate``.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class NegativityError(SynchradError, RuntimeError):
    """A spectrum that must be nonnegative came out significantly negative.

    Signals an unphysical coherence kernel or an under-resolved grid.
    """


class UncertifiedWidthWarning(UserWarning):
    """A localization width that its transform checks move by more than the
    certification tolerance: the width is a best estimate, with its
    estimated relative error in ``rel_error``."""

    def __init__(self, message, rel_error):
        super().__init__(message)
        self.rel_error = rel_error
