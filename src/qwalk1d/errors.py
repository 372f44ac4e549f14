"""Exception types shared across the package."""


class QWalkError(Exception):
    """Base class for all qwalk1d errors."""


class NotUnitaryError(QWalkError, ValueError):
    """A candidate coin matrix violates a unitarity invariant."""


class DegenerateCoinError(QWalkError, ValueError):
    """An operation requires abcd != 0 but the coin has a = 0 or b = 0."""


class CapExceededError(QWalkError, ValueError):
    """A size-capped operation was asked to exceed its cap."""


class ParityViolationError(QWalkError, ValueError):
    """A position is unreachable at the given time (n + k odd or |k| > n)."""


class NonConvergentError(QWalkError, ArithmeticError):
    """A series failed to converge within the iteration cap."""


class NumericalHealthError(QWalkError, ArithmeticError):
    """A computed value failed a numerical sanity check (never clamped)."""


class PoleAtCError(QWalkError, ZeroDivisionError):
    """The hypergeometric lower parameter hits a pole before termination."""


class OutOfWindowError(QWalkError, ValueError):
    """A ratio k/n lies outside the oscillatory window of the envelope."""
