"""Exception types shared across the package."""


class OddlexError(Exception):
    """Base class for all library errors."""


class ShapeError(OddlexError):
    """Operand has the wrong structural shape (rank, coordinate count, tree form)."""


class MembershipError(OddlexError):
    """Element is not a member of the carrier it was used with."""


class UndefinedCover(OddlexError):
    """No unique neighbour exists for the element in this algebra.

    Raised instead of silently returning the element itself, so that misuse
    of cover arithmetic outside discretely embedded group parts is loud.
    """


class PreconditionViolation(OddlexError):
    """A construction hypothesis failed; the message names the failed clause."""


class NotDense(OddlexError):
    """The algebra's order has covers, so no intermediate element exists."""


class ClosureBudgetExceeded(OddlexError):
    """Closure enumeration hit its element budget before stabilising."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


class LiteralSyntaxError(OddlexError):
    """Malformed element literal."""


class FormulaSyntaxError(OddlexError):
    """Malformed formula; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnassignedVariable(OddlexError):
    """Formula evaluation met a variable missing from the assignment."""
