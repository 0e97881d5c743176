"""Exception types shared across the package."""


class ApfreeError(Exception):
    """Base class for all errors raised by this package."""


class NotAPermutation(ApfreeError):
    """Input sequence is not a rearrangement of {1, ..., n}."""


class OracleRangeExceeded(ApfreeError):
    """Full-enumeration oracle asked to go beyond its configured ceiling."""


class ValueUnavailable(ApfreeError):
    """A required count is not present in the table."""


class LengthMismatch(ApfreeError):
    """Construction inputs have incompatible lengths."""


class InputNot3APFree(ApfreeError):
    """A construction was given an input containing a 3AP."""


class ConstructionViolation(ApfreeError):
    """A construction produced an output that failed its own 3AP-free check."""


class ParseError(ApfreeError):
    """Malformed text input. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConflictError(ApfreeError):
    """Data disagrees with an already-established exact value or bound."""
