"""Exception types shared across the library."""


class ImplicitSeriesError(Exception):
    """Base class for every error this library raises on purpose."""


class FieldMismatchError(ImplicitSeriesError):
    """Two values from different coefficient fields were combined."""


class ShapeMismatchError(ImplicitSeriesError):
    """Series operands disagree on truncation orders."""


class OrderExceededError(ImplicitSeriesError):
    """A derivative order exceeds the truncation order of the operand."""


class IndexOutOfTruncationError(ImplicitSeriesError):
    """A coefficient index lies outside the stored truncation box."""


class NonzeroConstantTermError(ImplicitSeriesError):
    """A series that must vanish at the origin does not."""


class NonzeroLinearYTermError(ImplicitSeriesError):
    """The linear Y coefficient must vanish but does not."""


class ZeroLinearYTermError(ImplicitSeriesError):
    """The linear Y coefficient must be invertible but is zero."""


class ZeroConstantTermError(ImplicitSeriesError):
    """A series that must be a unit at the origin vanishes there."""


class NotAUnitError(ImplicitSeriesError):
    """Reciprocal of a series whose constant term is not invertible."""


class NotARootError(ImplicitSeriesError):
    """The claimed root does not annihilate the polynomial."""


class InsufficientTruncationError(ImplicitSeriesError):
    """The input truncation box is too small to guarantee the answer."""


class PositiveCharacteristicError(ImplicitSeriesError):
    """An operation restricted to characteristic zero met a prime field."""


class LiteralNotInFieldError(ImplicitSeriesError):
    """A rational literal has no value in the target field."""


class ExpressionSyntaxError(ImplicitSeriesError):
    """Malformed expression text.  Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ExponentNegativeError(ExpressionSyntaxError):
    """An exponent in an expression was negative."""


class ExponentTooLargeError(ExpressionSyntaxError):
    """An exponent tower in an expression reaches 2^64 or more."""


class BoxTooLargeError(ImplicitSeriesError):
    """A truncation box would hold more than ``series.MAX_BOX_CELLS`` cells."""


class ConstantPowerTooLargeError(ImplicitSeriesError):
    """A power of a constant over Q would exceed the lowering size cap."""


class UnexpectedVariableError(ImplicitSeriesError):
    """An expression uses a variable the caller did not allow."""
