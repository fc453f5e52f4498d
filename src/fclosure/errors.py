"""Exception and warning types shared across the engine."""


class FClosureError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FClosureError):
    """Malformed polynomial or ring-description text."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class RingMismatchError(FClosureError):
    """Operands live in different rings."""


class BudgetExceededError(FClosureError):
    """A cap of :class:`~fclosure.config.EngineConfig` was exhausted.

    ``kind`` names the cap, as listed beside each field there.  Always
    reported, never converted into a wrong answer.
    """

    def __init__(self, message, kind=None):
        super().__init__(message)
        self.kind = kind


class UnstabilizedError(FClosureError):
    """An ascending chain did not stabilize within its iteration window.

    ``partial`` carries the chain values computed so far.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or []


class QExponentNotFoundError(FClosureError):
    """No exponent within the examined window equalized the Frobenius powers."""

    def __init__(self, message, e_max=None):
        super().__init__(message)
        self.e_max = e_max


class CertificateError(FClosureError):
    """A construction-time membership certificate failed."""


class InternalError(FClosureError):
    """An engine invariant failed; this is a bug, not a property of the input."""


class ColonByZeroWarning(UserWarning):
    """Colon by the zero ideal: the unit ideal is returned by convention."""
