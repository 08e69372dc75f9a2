"""Exception types shared across the package."""


class OpfrobError(Exception):
    """Base class for all package errors.  An error raised over a sample
    batch carries ``index``, the position in the batch of the first point
    that failed; it is None otherwise."""

    def __init__(self, *args, index=None):
        super().__init__(*args)
        self.index = index


class InputError(Exception):
    """Bad file, option or expression input (exit 2; not an OpfrobError)."""


class ExprSyntaxError(OpfrobError):
    """Raised when expression text cannot be parsed; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(OpfrobError):
    """Raised on evaluation singularities (division by zero, 0^negative)."""


class SingularMatrixError(OpfrobError):
    """Raised when a matrix is singular relative to its largest entry: an
    elimination pivot, or over a batch the smallest singular value, below
    the threshold."""


class SqrtConvergenceError(OpfrobError):
    """Raised when the coupled square-root iteration fails to converge,
    signalling that the spectrum precondition is violated."""


class NonCommutingError(OpfrobError):
    """Raised when a bracket is requested for operator values that do not
    commute at the evaluation point."""


class OneFormNotClosedError(OpfrobError):
    """Raised when a 1-form claimed closed has nonzero exterior derivative."""


class GenericityError(OpfrobError):
    """Raised when no generic vector/covector could be found by sampling."""
