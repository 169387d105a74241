"""Exception types shared across the package, and the one byte budget
of the builders' working arrays."""

WORK_MAX_BYTES = 1 << 30  # cap on the working arrays of one builder or raster


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


def check_work_bytes(nbytes: float, what: str) -> None:
    """Raise TruncationError when `what` needs more than WORK_MAX_BYTES of
    working arrays; called before anything of that size is allocated."""
    if nbytes > WORK_MAX_BYTES:
        raise TruncationError(
            f"{what} needs about {nbytes / 2**30:.3g} GiB of working arrays "
            f"(cap {WORK_MAX_BYTES / 2**30:.0f} GiB)"
        )
