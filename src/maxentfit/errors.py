"""Exception types shared across the package."""


class MaxentError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MaxentError, ValueError):
    """Inputs disagree on spatial dimension or array shape."""


class ConfigError(MaxentError, ValueError):
    """Invalid configuration value, file, or experiment name."""


class DomainError(MaxentError, ValueError):
    """Numeric input outside the mathematical domain of an operation."""


class OutsideHullError(MaxentError, ValueError):
    """Query point lies outside the convex hull of the basis nodes.

    For a batch, ``indices`` names every outside row and ``index`` and
    ``point`` the first of them.
    """

    def __init__(self, message, point=None, index=None, indices=()):
        super().__init__(message)
        self.point = point
        self.index = index
        self.indices = tuple(indices)


class FitError(MaxentError, RuntimeError):
    """Basis evaluation or coefficient solve failed during a fit."""

    def __init__(self, message, failed_indices=(), component=None):
        super().__init__(message)
        self.failed_indices = tuple(failed_indices)
        self.component = component


class NumericalBlowup(MaxentError, RuntimeError):
    """Time integration produced a non-finite state.

    Carries the valid prefix of the trajectory so callers can inspect how
    far the rollout got before it diverged.
    """

    def __init__(self, message, times=None, states=None):
        super().__init__(message)
        self.times = times
        self.states = states


class AugmentationWarning(UserWarning):
    """Fewer distinct augmentation candidates than requested."""
