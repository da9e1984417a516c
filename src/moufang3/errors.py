"""Exception types shared across the package."""


class ValidationFailure(Exception):
    """A multiplication/inverse table violates a structural invariant."""


class ParseError(ValueError):
    """Malformed element or expression text.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position=0):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.reason = message


class AmbiguousBracketing(ParseError):
    """Three or more factors without explicit parentheses.

    The loop is nonassociative, so silent left-association would be a
    correctness trap; the expression grammar rejects it instead.
    """


class UnboundVariable(LookupError):
    """A polynomial was evaluated or substituted without covering a variable."""


class LoopLawError(RuntimeError):
    """Base class for self-checks that must never fire on a correct table.

    Any of these firing signals a transcription bug in the tables, not a
    property of the loop.
    """


class InverseLawViolation(LoopLawError):
    """x * inverse(x) or inverse(x) * x differed from the identity."""


class DivisionCheckFailed(LoopLawError):
    """A division result failed its defining equation."""


class WitnessFailed(LoopLawError):
    """The non-subloop witness checks did not hold on the shipped tables."""


class TailCentralityBroken(LoopLawError):
    """An associator coordinate read one of the central tail coordinates."""


class CanonicalFormBroken(LoopLawError):
    """A nonzero polynomial vanished under every value of one variable."""


class OrderNotFoundWithinCap(RuntimeError):
    """Element order exceeded the iteration cap; the caller may raise it."""


class ZeroSeed(ValueError):
    """The xorshift-star generator state must be a nonzero 64-bit integer."""
