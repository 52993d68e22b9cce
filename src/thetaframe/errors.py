"""Exception types shared across the package, and the one rule for what
counts as a real or an integer argument."""

import math


class DomainError(ValueError):
    """An argument lies outside the supported domain."""


class ConvergenceError(RuntimeError):
    """An iteration hit its safety cap before certifying the result."""


class RangeError(ValueError):
    """A search bracket does not contain the feature being located."""


def _is(x, abc: str) -> bool:
    """isinstance(x, numbers.<abc>) for x not a bool; numbers is imported
    only off the int and float fast paths, so no start-up pays for it."""
    import numbers
    return isinstance(x, getattr(numbers, abc)) and x.__class__ is not bool


def real(x, what: str) -> float:
    """x as a finite float: any real number but a bool (numpy's too), so
    no str, None, complex or Decimal; else DomainError naming what."""
    try:  # a float subclass, as numpy's float64, needs no ABC either
        if (isinstance(x, float) or x.__class__ is int or _is(x, "Real")) \
                and math.isfinite(y := float(x)):
            return y
    except OverflowError:  # an int or a Fraction beyond float range
        pass
    raise DomainError(f"{what}={x!r} must be a finite real number, not bool")


def integer(x, what: str) -> int:
    """x as an int: any integer but a bool; else DomainError naming what."""
    if x.__class__ is int or _is(x, "Integral"):
        return int(x)
    raise DomainError(f"{what}={x!r} must be an integer, not bool")
