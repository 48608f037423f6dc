"""Exception types raised across the package."""


class RsopError(Exception):
    """Base class for all package errors."""


class ScenarioError(RsopError):
    """Scenario file is malformed or violates a configuration invariant."""


class InvalidTiming(RsopError):
    """Slot timing arithmetic received an impossible sensing time."""


class TooFewSamples(RsopError):
    """Energy detector asked to integrate fewer than one sample."""


class DegenerateSnr(RsopError):
    """Zero SNR makes the minimum sensing time unbounded."""


class EmptyGrid(RsopError):
    """Optimizer grid contains no points."""


class InvalidSchedule(RsopError):
    """Convergence diagnostics given constants, a tolerance or a step count
    outside their domain."""


class ShortFrame(RsopError):
    """Frame estimator received fewer slot outcomes than the estimation period."""
