"""Shared exception types."""


class GradedLieError(Exception):
    """Base class for all package errors."""


class InvalidCutoff(GradedLieError):
    pass


class CutoffTooSmall(GradedLieError):
    def __init__(self, needed, available, what=""):
        self.needed = needed
        self.available = available
        msg = f"cutoff {available} too small, need at least {needed}"
        if what:
            msg += f" for {what}"
        super().__init__(msg)


class AmbientMismatch(GradedLieError):
    pass


class ArityMismatch(GradedLieError):
    pass


class NotACocycle(GradedLieError):
    pass


class AlgebraFormatError(GradedLieError):
    """Syntax error in an algebra description file.  Carries the line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class WeightViolation(GradedLieError):
    """A bracket target whose weight is not the sum of the source weights."""

    def __init__(self, i, j, k, message=""):
        self.bracket = (i, j, k)
        super().__init__(message or f"bracket [{i},{j}] -> {k} violates weight additivity")


class JacobiViolation(GradedLieError):
    """Jacobi identity fails on a basis triple."""

    def __init__(self, triple, message=""):
        self.triple = triple
        super().__init__(message or f"Jacobi identity fails on basis triple {triple}")


class NotApplicable(GradedLieError):
    pass


class MasseyNotDefined(GradedLieError):
    """A Massey product is not defined (some obstruction window is non-trivial)."""

    def __init__(self, window=None, message=""):
        self.window = window
        super().__init__(message or f"product not defined (obstruction at window {window})")


class UnverifiedInput(GradedLieError):
    pass


class InternalCheckFailed(GradedLieError):
    """A re-check of a computed witness or certificate failed: a program fault,
    not bad input."""


class UsageError(GradedLieError):
    """Malformed or out-of-range argument: a command-line option, an
    environment value or a library parameter."""


def internal_check(condition, message):
    """Raise InternalCheckFailed unless condition holds; unlike ``assert``,
    the check survives ``python -O``."""
    if not condition:
        raise InternalCheckFailed(message)
