"""Exception types shared across the toolkit.

Every toolkit exception carries the CLI exit code it maps to: 1 for
usage mistakes, 2 for bad input data or configuration, 3 for numerical
fitting failures. The CLI maps only these, and files it cannot read
(exit 2). A plain ``ValueError`` is a caller error: code that meets bad
input data raises one of these classes where it finds it.
"""


class ToolkitError(Exception):
    """Base class for toolkit failures."""

    exit_code = 2


class UsageError(ToolkitError):
    """Invalid invocation or argument combination."""

    exit_code = 1


class DataError(ToolkitError):
    """Malformed input data: files, streams, or datasets."""

    exit_code = 2


class ParseError(DataError):
    """A line of an input file could not be parsed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ArityError(ParseError):
    """A sample line carried the wrong number of channels."""


class StreamError(DataError):
    """A sample stream violated its ordering contract."""


class ConfigError(DataError):
    """Inconsistent or invalid configuration."""


class FitError(ToolkitError):
    """Numerical failure while fitting a calibration model."""

    exit_code = 3


class UnderdeterminedFitError(FitError):
    """Fewer samples than polynomial coefficients."""


class SingularFitError(FitError):
    """Design matrix is rank deficient, or overflows, at the requested order."""
