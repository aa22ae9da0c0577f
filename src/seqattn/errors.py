"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: configuration,
usage, shape and contract errors exit 2, data and file-format errors
exit 3, numeric failures exit 4.
"""


class SeqattnError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


class ShapeError(SeqattnError):
    """Operand dimensions do not satisfy an operation's contract."""


class ContractError(SeqattnError):
    """A precondition on values (not shapes) was violated."""


class ConfigError(SeqattnError):
    """A configuration value is out of its allowed range."""


class DataError(SeqattnError):
    """Input data is malformed at the record level (bad label, bad id)."""
    exit_code = 3


class FormatError(SeqattnError):
    """A file does not conform to its declared format."""
    exit_code = 3

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(SeqattnError):
    """A computation produced NaN/Inf or otherwise diverged."""
    exit_code = 4
