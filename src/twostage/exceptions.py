"""Error types shared across the package.

All library errors derive from TwoStageError so callers can catch one base
class.  The split matters for the CLI, which maps ValidationError and
PreconditionError to exit code 2 and GuardExceededError to exit code 3.
"""

__all__ = [
    "TwoStageError",
    "ValidationError",
    "PreconditionError",
    "GuardExceededError",
]


class TwoStageError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TwoStageError, ValueError):
    """Malformed input data: bad descriptor payloads, bad instance files."""


class PreconditionError(TwoStageError, ValueError):
    """An operation was called with arguments that violate its contract."""


class GuardExceededError(TwoStageError):
    """An exact enumeration would exceed its evaluation budget."""
