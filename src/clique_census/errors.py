"""Exception types shared across the package, the default vertex limits
past which the exhaustive searches raise OracleLimitError, and the int
check on count arguments.

These live here, with the errors they lead to, so the CLI and the
construction generators can use them without importing the searches.
"""

DEFAULT_SUBDIVISION_LIMIT = 16
DEFAULT_MINOR_LIMIT = 14
DEFAULT_EXHAUSTIVE_LIMIT = 22


def _require_int(name: str, value) -> None:
    """TypeError naming the parameter unless value is an int; a bool is
    an int, but not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


class CliqueCensusError(Exception):
    """Base class for errors raised by this package."""


class GraphParseError(CliqueCensusError):
    """Malformed graph input. Carries the offending line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class OracleLimitError(CliqueCensusError):
    """Input is larger than the configured limit for an exhaustive search."""


class ExtractionError(CliqueCensusError):
    """Dense-window witness extraction could not run or could not finish."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason  # "precondition" | "no_dense_subset" | "no_connector"
