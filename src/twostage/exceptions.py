"""Error types shared across the package.

All library errors derive from TwoStageError so callers can catch one base
class.  The split matters for the CLI, which maps ValidationError (any
rejected input or argument) to exit code 2 and GuardExceededError to exit
code 3.
"""

__all__ = [
    "TwoStageError",
    "ValidationError",
    "GuardExceededError",
]


class TwoStageError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TwoStageError, ValueError):
    """Rejected input or arguments: bad descriptor payloads, bad instance
    files, or a call that violates its contract."""


class GuardExceededError(TwoStageError):
    """An exact enumeration would exceed its evaluation budget."""
