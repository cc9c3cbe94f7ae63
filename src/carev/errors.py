"""Exception hierarchy shared across the package."""


class CarevError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(CarevError):
    """Operands belong to different fields."""


class DivisionByZero(CarevError, ZeroDivisionError):
    """Inversion or division by a zero element / zero polynomial."""


class NotSquarefree(CarevError):
    """Polynomial shares a factor with its derivative."""


class DoesNotSplit(CarevError):
    """Polynomial does not factor into linear terms over the given field."""


class UnsupportedRange(CarevError):
    """Parameters outside the supported exact-arithmetic range."""


class ShapeMismatch(CarevError):
    """Incompatible matrix / pattern dimensions."""


class BandTooWide(CarevError):
    """Toeplitz bandwidth is not smaller than the matrix size."""


class SizeCapExceeded(CarevError):
    """Requested dense matrix exceeds the configured size cap."""


class Singular(CarevError):
    """Matrix has zero determinant where an inverse was requested."""


class NotReversible(CarevError):
    """The cellular automaton is not reversible; carries a witness."""

    def __init__(self, witness):
        super().__init__(f"rule is not reversible; zero eigenvalue witness {witness}")
        self.witness = witness


class InternalVerificationFailed(CarevError):
    """An exact self-check failed; indicates a bug, not bad input."""


class InputError(CarevError):
    """Malformed rule / pattern / matrix input."""
