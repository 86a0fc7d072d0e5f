"""Exception types shared across the package."""


class GssampError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(GssampError, ValueError):
    """An argument violates a precondition (bad size, rate, range, ...)."""


class GenerationFailureError(GssampError, RuntimeError):
    """A randomized graph generator exhausted its retry budget."""


class NumericError(GssampError, RuntimeError):
    """A numerical routine failed (singular block, non-convergence, ...)."""


class ParseError(GssampError, ValueError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DataError(GssampError, ValueError):
    """Parsed data violates a structural invariant (self-loop, conflict, ...)."""
