"""Exception types shared across the package, and the default vertex
limits past which the exhaustive searches raise OracleLimitError.

The limits live here, with the error they lead to, so the CLI can show
them in its help without importing the searches.
"""

DEFAULT_SUBDIVISION_LIMIT = 16
DEFAULT_MINOR_LIMIT = 14
DEFAULT_EXHAUSTIVE_LIMIT = 22


class CliqueCensusError(Exception):
    """Base class for errors raised by this package."""


class GraphParseError(CliqueCensusError):
    """Malformed graph input. Carries the offending line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class CapacityError(CliqueCensusError):
    """A materialized structure outgrew its node cap.

    partial_count is the number of nodes created before the cap was hit.
    """

    def __init__(self, message, partial_count):
        super().__init__(message)
        self.partial_count = partial_count


class OracleLimitError(CliqueCensusError):
    """Input is larger than the configured limit for an exhaustive search."""


class ExtractionError(CliqueCensusError):
    """Dense-window witness extraction could not run or could not finish."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason  # "precondition" | "no_dense_subset" | "no_connector"
