"""Exception types shared across the library."""


class TwirlError(Exception):
    """Base class for all library errors."""


class NotEisenstein(TwirlError):
    """The defining polynomial is not Eisenstein at p."""


class PrecisionTooSmall(TwirlError):
    """Requested working precision is below the decidability threshold."""


class PrecisionExhausted(TwirlError):
    """Cancellation pushed the first nonzero digit beyond working precision."""


class DomainError(TwirlError):
    """Argument outside the domain of a partial function."""


class Singular(TwirlError):
    """Matrix (or element) is not invertible."""


class SingularGammaMinusOne(TwirlError):
    """gamma - 1 is not invertible, so the norm preimage is undefined."""


class NotRegular(TwirlError):
    """Element fails the twisted regularity criterion."""

