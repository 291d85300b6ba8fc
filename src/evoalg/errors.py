"""Exception types shared across the package."""


class EvoAlgError(Exception):
    """Base class for all errors raised by this package. ``exit_code`` is
    the command line's exit status for the error."""

    exit_code = 1


class ParseError(EvoAlgError, ValueError):
    """Malformed field descriptor, scalar string, family spec, or JSON document."""


class FieldMismatchError(EvoAlgError, ValueError):
    """Operands belong to different fields."""


class SingularMatrixError(EvoAlgError, ValueError):
    """A nonsingular structure matrix was required."""

    exit_code = 2


class CapExceededError(EvoAlgError, RuntimeError):
    """An input passed a size cap (dimension, conductor, census or oracle),
    or a listing of group elements, points or maps grew past the closure
    cap."""

    exit_code = 5


class UnclosedGroupError(EvoAlgError, ValueError):
    """An operation needed a group that is closed under composition."""
