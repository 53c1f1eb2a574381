"""Exception taxonomy shared across the package.

The CLI maps these onto distinct process exit codes, so the hierarchy is
deliberately small: bad arguments, bad data files, numeric breakdowns, and
network trouble are the only distinctions callers need.
"""


class RankRefineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RankRefineError, ValueError):
    """An argument or configuration value violates a documented contract."""


class DataError(RankRefineError):
    """An input file is malformed or internally inconsistent."""


class NumericError(RankRefineError):
    """A computation produced a non-finite or otherwise unusable result."""


class TransportError(RankRefineError):
    """A network call or remote endpoint failed, with the wait in seconds it
    asked for (``retry_after``) and whether repeating the call can help."""

    def __init__(self, message: str, retry_after: float | None = None, retryable: bool = True):
        super().__init__(message)
        self.retry_after, self.retryable = retry_after, retryable
