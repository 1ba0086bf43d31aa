"""Exception types shared across the package."""


class QuarticError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QuarticError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class DivisionByZero(QuarticError):
    pass


class ZeroDivisor(QuarticError):
    pass


class NotASquare(QuarticError):
    pass


class UnsupportedFamily(QuarticError):
    pass


class ConstraintViolation(QuarticError):
    pass


class Hyperelliptic(QuarticError):
    pass


class UnsupportedKind(QuarticError):
    pass


class EpsilonZero(QuarticError):
    pass


class SubstitutionMismatch(QuarticError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ZeroForm(QuarticError):
    pass


class PointNotOnCurve(QuarticError):
    pass


class NotSmoothPoint(QuarticError):
    pass


class NotSingular(QuarticError):
    pass


class NonRationalCenter(QuarticError):
    pass


class UnknownCurve(QuarticError):
    pass


class IdentityFailed(QuarticError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InternalCheckFailed(QuarticError):
    """A construction self-check (e.g. substitution of a claimed singular
    point) did not come out zero; indicates a bug, not bad input."""


class NoSuchRow(QuarticError):
    """The property triple matches none of the five classification rows."""


class NotHomogeneous(QuarticError):
    """The operation needs a homogeneous form."""


class EliminationMismatch(QuarticError):
    """A symbolic elimination disagrees with the closed-form relation."""

    def __init__(self, message, coefficient=None):
        super().__init__(message)
        self.coefficient = coefficient
