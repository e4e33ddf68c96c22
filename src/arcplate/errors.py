"""Exception types shared across the package.

Every error raised by the library derives from ArcPlateError so callers can
catch the whole family; each also derives from the closest builtin so code
that only knows the stdlib hierarchy still behaves sensibly.
"""


class ArcPlateError(Exception):
    """Base class for all library errors."""


class ContactViolationError(ArcPlateError, ValueError):
    """The arc touches or penetrates the plate (separation <= 0 somewhere)."""


class NonPositiveGapError(ArcPlateError, ValueError):
    """A gap or plate separation that must be > 0 is not."""


class PfaViolationError(ArcPlateError, ValueError):
    """gap/radius ratio outside the regime the proximity approximation allows."""


class NonPositiveThicknessError(ArcPlateError, ValueError):
    """Membrane thickness must be > 0."""


class NonNegativeEnergyError(ArcPlateError, ValueError):
    """An attractive (negative) interaction energy was required."""


class NonFiniteResultError(ArcPlateError, ArithmeticError):
    """A result lies outside the range of a double: it overflows, underflows
    to zero or is not a number."""


class ZeroReferenceError(ArcPlateError, ValueError):
    """Reference value of a relative deviation must be positive."""


class MaterialNotFoundError(ArcPlateError, LookupError):
    """Requested material name is not in the available set."""


class MaterialConfigError(ArcPlateError, ValueError):
    """A materials config file is malformed or an entry fails validation."""
