"""Sharp Gabor frame bounds for the Gaussian window on separable lattices.

For a lattice alpha Z x beta Z with integer density n = 1/(alpha beta) the
optimal frame bounds have closed forms in theta values at

    a = n^2 beta^2 / 2,    b = 1 / (2 beta^2).

Even n:  A = n theta4(a) theta4(b),             B = n theta3(a) theta3(b).
Odd  n:  A = n (theta4(a) theta4(b) - 2 theta_odd(a) theta_odd(b)),
         B = n (theta3(a) theta3(b) - 2 theta_odd(a) theta_odd(b)).

Error bounds on the theta factors are propagated through the products and
differences with the rules of ball.py, the one place where rounding is
accounted for, so callers can trust inequalities between bounds. With
a f'(a) f(b) - b f(a) f'(b) in place of f(a) f(b), the same body gives
(beta/2) dA/dbeta and (beta/2) dB/dbeta.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ball import mul, scale, sub
from .errors import DomainError, integer, real
from .theta import DEFAULT_TOL, S_MAX, S_MIN, _thetas


def _theta_args(n: int, beta: float) -> tuple[float, float]:
    """(a, b) = (n^2 beta^2 / 2, 1 / (2 beta^2)), unchecked."""
    return 0.5 * (n * beta) * (n * beta), 0.5 / (beta * beta)


class LatticeParams(NamedTuple("LatticeParams",
                                [("n", int), ("beta", float)])):
    """A separable lattice alpha Z x beta Z of integer density n.

    alpha = 1/(n beta) is derived. n is a positive integer and beta a
    positive real number, neither a bool, such that the theta arguments a
    and b lie in [S_MIN, S_MAX]; they are stored as an int and a float.
    """

    __slots__ = ()

    def __new__(cls, n: int, beta: float):
        if (n := integer(n, "n")) < 1:
            raise DomainError(f"n={n!r} must be a positive integer")
        if not (beta := real(beta, "beta")) > 0.0:
            raise DomainError(f"beta={beta!r} must be a positive real")
        try:
            args = _theta_args(n, beta)
        except OverflowError:
            raise DomainError("n * beta overflows a float") from None
        except ZeroDivisionError:
            raise DomainError(f"beta={beta!r}: beta**2 underflows") from None
        for arg in args:
            if not (S_MIN <= arg <= S_MAX):
                raise DomainError(
                    f"beta={beta!r} puts theta argument {arg!r} outside "
                    f"[{S_MIN}, {S_MAX}]")
        return super().__new__(cls, n, beta)

    # so _replace, which calls _make, validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def alpha(self) -> float:
        return 1.0 / (self.n * self.beta)


def lattice_params(n: int, beta: float) -> LatticeParams:
    """The lattice of density n and step beta."""
    return LatticeParams(n, beta)


class FrameBounds(NamedTuple):
    """Lower/upper frame bounds with a shared absolute error bound.

    ratio is upper/lower (math.inf when lower is not usable). valid is
    lower > error_bound, the larger radius: often upper's rounding, so
    valid can be False although lower's own ball excludes 0.
    """

    lower: float
    upper: float
    ratio: float
    error_bound: float
    valid: bool


def _bounds(n, beta, tol, slopes=False):
    """(A, B) as balls, n pair(theta4) and n pair(theta3), less 2n
    pair(theta_odd) for odd n, from the theta balls at a and b. pair(f)
    is f(a) f(b), or with slopes a f'(a) f(b) - b f(a) f'(b), which is
    (beta/2) d/dbeta [f(a) f(b)] as da/dbeta = 2a/beta, db/dbeta = -2b/beta.
    """
    a, b = _theta_args(n, beta)
    fa, fb = _thetas(a, 0, tol, n % 2), _thetas(b, 0, tol, n % 2)
    if slopes:
        da, db = _thetas(a, 1, tol, n % 2), _thetas(b, 1, tol, n % 2)
        hi, lo, *odd = [sub(mul(scale(d, a), g), mul(f, scale(h, b)))
                        for d, g, f, h in zip(da, fb, fa, db)]
    else:
        hi, lo, *odd = map(mul, fa, fb)
    if odd:
        odd = scale(odd[0], 2.0)
        lo = sub(lo, odd)
        hi = sub(hi, odd)
    return scale(lo, n), scale(hi, n)


def _frame_slopes(n: int, beta: float):
    """Balls (value, radius) of (beta/2) dA/dbeta and (beta/2) dB/dbeta at
    a validated lattice, with the theta arguments rounded as frame_bounds
    rounds them.

    Near the optimum the slopes are tiny, so a 1e-12 truncation target
    would hide their sign (1e-10 from it at n = 5); 1e-16 leaves rounding.
    """
    return _bounds(n, beta, 1e-16, True)


def frame_bounds(params: LatticeParams) -> FrameBounds:
    """Bounds of a lattice (validated on creation), from theta values at
    the truncation target DEFAULT_TOL = 1e-12."""
    if not isinstance(params, LatticeParams):
        raise DomainError(f"expected LatticeParams, got {params!r}")
    lower, upper, ratio, error_bound = _frame_row(*params)
    return FrameBounds(lower, upper, ratio, error_bound, lower > error_bound)


def _frame_row(n, beta):
    """(A, B, B/A, shared radius) of frame_bounds at a validated lattice;
    B/A is inf unless A > 0."""
    (lower, r_lower), (upper, r_upper) = _bounds(n, beta, DEFAULT_TOL)
    return (lower, upper, upper / lower if lower > 0.0 else math.inf,
            max(r_lower, r_upper))


def _parity_bounds(n, beta, parity):
    params = LatticeParams(n, beta)
    if parity != ("even" if n % 2 == 0 else "odd"):
        raise DomainError(f"parity {parity!r} does not match n={n}")
    return frame_bounds(params)


def frame_bounds_even(n: int, beta: float) -> FrameBounds:
    """Closed-form bounds for even density n."""
    return _parity_bounds(n, beta, "even")


def frame_bounds_odd(n: int, beta: float) -> FrameBounds:
    """Closed-form bounds for odd density n."""
    return _parity_bounds(n, beta, "odd")
