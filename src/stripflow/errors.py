"""Exception hierarchy.

Every error raised on purpose by this package derives from StripflowError.
The ``exit_code`` attribute is what the command line maps a failure to:
2 for configuration or input problems, 3 for numerical solver failures.
I/O failures are plain OSError and are mapped to 4 by the CLI.
"""


class StripflowError(Exception):
    """Base class for all package errors. Treated as a config/input error."""

    exit_code = 2


class SolverError(StripflowError):
    """A numerical procedure failed (singular system, no convergence)."""

    exit_code = 3


# geometry

class NoStripNodes(StripflowError):
    """The requested strip width captures no grid node."""


class BadSpacing(StripflowError):
    """The spacing h does not tile the box sides."""


class EmptyInterior(StripflowError):
    """No interior nodes, and the caller did not opt in to that."""


# kernels

class SingularAtOrigin(StripflowError):
    """Singular-family kernel evaluated at zero displacement."""


class EmptySupport(StripflowError):
    """No node pair has a nonzero kernel value."""


# elliptic / evolution solvers

class NonConvexExponent(StripflowError):
    """Exponent p <= 1 requested; the edge energy is only convex for p > 1."""


class SingularSystem(SolverError):
    """The interior linear system is numerically singular."""


class NoConvergence(SolverError):
    """Iteration budget exhausted. ``best``, when set, is the last iterate
    with its report: a (FullField, EnergyReport) pair from a descent solve."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NoContraction(SolverError):
    """Fixed-point iteration failed to contract; shrink the time window."""


# analysis

class InvalidArgument(StripflowError):
    """Argument outside the supported range."""


class TooFewStripNodes(StripflowError):
    """Gap computation needs at least two strip nodes."""


class NotMeanZero(StripflowError):
    """Strip field has a nonzero weighted mean where a mean-zero one is required."""


class ConstantField(StripflowError):
    """Strip field is constant where variation is required."""


class EmptyBump(StripflowError):
    """Requested bump radius is below the grid resolution."""


class NonPositiveData(StripflowError):
    """Decay fitting needs strictly positive samples."""


class WindowTooSmall(StripflowError):
    """Fit window contains too few samples."""


# config / output

class ConfigInvalid(StripflowError):
    """A configuration field failed validation."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class EmptySeries(StripflowError):
    """Plot requested for an empty or degenerate series."""
