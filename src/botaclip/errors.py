"""Exception hierarchy shared by the whole package.

One class per way a caller reacts: the CLI maps UsageError, DataError and
NumericError to exit codes 1, 2 and 3, and callers that drop an undefined
metric or statistic catch Degenerate. The message says what went wrong.
"""


class BotaclipError(Exception):
    """Base class for all package errors."""


class UsageError(BotaclipError):
    """Bad command-line usage or configuration. CLI exit code 1."""


class DataError(BotaclipError):
    """Invalid, inconsistent or degenerate input data. CLI exit code 2."""


class NumericError(BotaclipError):
    """Numeric failure (non-finite values, zero rows, ...). CLI exit code 3."""


class Degenerate(DataError):
    """A metric or statistic is undefined for these inputs."""


class MissingForwardCache(BotaclipError):
    """backward() called without a preceding forward pass."""
