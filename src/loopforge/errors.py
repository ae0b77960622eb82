"""Exception hierarchy shared across the package.

``DomainError`` covers mathematically invalid inputs (CLI exit code 2);
``ParseError`` covers malformed files and option values (exit code 1).
"""


def clipped(text: str, limit: int = 40) -> str:
    """text itself; past ``limit`` characters, the first ``limit`` and the length."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def quoted(text: str) -> str:
    """``repr`` of text; past 40 characters, the first 40 and the length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


class LoopforgeError(Exception):
    """Base class for all package errors."""


class ParseError(LoopforgeError):
    """Malformed textual input (code file, lambda string, CLI value)."""


class DomainError(LoopforgeError):
    """Input violates a mathematical precondition."""


class NotCovering(DomainError):
    """Generators do not cover all ambient positions."""


class NotDoublyEven(DomainError):
    """Span contains a codeword whose weight is not divisible by 4."""


class DegenerateBasis(DomainError):
    """Generators are empty or linearly dependent over GF(2)."""


class NotInvertible(DomainError):
    """Matrix is singular over GF(2)."""


class AssociativeLoop(DomainError):
    """Characteristic vector has a trivial associator part."""


class UnsupportedRank(DomainError):
    """Rank outside the range this operation supports."""


class InfeasibleProfile(DomainError):
    """Weight profile forces a negative class cardinality."""


class NotReduced(DomainError):
    """Weight profile forces a class cardinality above the reduced bound."""
