"""Exception types shared across the package."""

__all__ = [
    "QuantRiskError",
    "ParameterError",
    "NotSpectralError",
    "NoCounterexampleError",
    "InconclusiveError",
    "ParseError",
]


class QuantRiskError(Exception):
    """Base class for all domain-level errors raised by this package."""


class ParameterError(QuantRiskError, ValueError):
    """A numeric argument lies outside its admissible range."""


class NotSpectralError(QuantRiskError):
    """The distortion is not convex, so no increasing density represents it.

    Carries the midpoint witness ``(u, eps)`` with
    ``2*D(u) > D(u - eps) + D(u + eps)``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NoCounterexampleError(QuantRiskError):
    """Requested a subadditivity counterexample for a convex distortion."""


class InconclusiveError(QuantRiskError):
    """A numeric routine could not certify its result.

    ``diagnostics`` holds the partial values that were inspected; callers
    never receive a silently wrong number.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics if diagnostics is not None else []


class ParseError(QuantRiskError):
    """Malformed input file; ``line`` is 1-based when applicable."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
