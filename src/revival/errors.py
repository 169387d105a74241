"""Exception types shared across the package."""


class RevivalError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RevivalError):
    """Input outside the mathematical domain of an operation."""


class RangeError(RevivalError):
    """Argument outside the validated numerical range of a routine."""


class RootError(RevivalError):
    """A root could not be located or refined to tolerance."""


class ContainmentError(RevivalError):
    """Wave packet is too close to a hard wall for the closed forms."""


class TruncationError(RevivalError):
    """A basis, window, or sum cap is too small for the request."""


class OrbitUnsupportedError(RevivalError):
    """The requested closed orbit does not exist in this geometry."""


class ConfigError(RevivalError):
    """Invalid or incomplete scenario configuration."""
