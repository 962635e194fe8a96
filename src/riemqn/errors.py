"""Exception types shared across the package."""


class RiemqnError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolationError(RiemqnError, ValueError):
    """An operation was called with arguments that violate its preconditions."""


class InvalidPointError(RiemqnError, ValueError):
    """Ambient data does not satisfy the manifold constraint."""


class SingularRetractionError(RiemqnError, ValueError):
    """Retraction hit a zero vector (or zero column) and is undefined."""


class AntipodalPointsError(RiemqnError, ValueError):
    """Inverse retraction is undefined for this pair of points."""


class DegenerateTransportError(RiemqnError, ValueError):
    """A transported vector vanished, so no scaling factor exists."""


class DegenerateStepError(RiemqnError, ValueError):
    """The previous step collapsed to zero; curvature data is unusable."""


class DegenerateZError(RiemqnError, ValueError):
    """The regularized gradient-difference vector is degenerate."""


class OutOfHypothesisError(RiemqnError, ValueError):
    """Parameter bounds fall outside the range where the descent constant exists."""


class LineSearchFailedError(RiemqnError, RuntimeError):
    """No step satisfying the Wolfe conditions was found within the budget."""


class EmptyTableError(RiemqnError, ValueError):
    """A performance profile was requested for an empty cost table."""


class ConfigError(RiemqnError, ValueError):
    """Invalid configuration value or file."""
