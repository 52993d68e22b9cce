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
from dataclasses import dataclass

from .ball import mul, scale, sub
from .errors import DomainError
from .theta import (DEFAULT_TOL, S_MAX, S_MIN, THETA3, THETA4, THETA_ODD,
                    eval_theta)


@dataclass(frozen=True)
class LatticeParams:
    """A separable lattice alpha Z x beta Z of integer density n.

    n and beta determine the lattice; alpha = 1/(n beta) is derived.
    Construction validates n and beta and stores beta as a float.
    """

    n: int
    beta: float

    def __post_init__(self):
        n, beta = self.n, float(self.beta)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError(f"n={n!r} must be a positive integer")
        if not (math.isfinite(beta) and beta > 0.0):
            raise DomainError(f"beta={beta!r} must be positive")
        object.__setattr__(self, "beta", beta)

    @property
    def alpha(self) -> float:
        return 1.0 / (self.n * self.beta)


def lattice_params(n: int, beta: float) -> LatticeParams:
    """The lattice of density n and step beta."""
    return LatticeParams(n, beta)


@dataclass(frozen=True)
class FrameBounds:
    """Lower/upper frame bounds with a shared absolute error bound.

    ratio is upper/lower (math.inf when lower is not usable). valid is
    False when lower <= error_bound: the lower bound is then numerically
    indistinguishable from a degenerate (non-frame) configuration.
    """

    lower: float
    upper: float
    ratio: float
    error_bound: float
    valid: bool


def _theta_args(n: int, beta: float) -> tuple[float, float]:
    a = 0.5 * (n * beta) * (n * beta)
    b = 0.5 / (beta * beta)
    for arg in (a, b):
        if not (S_MIN <= arg <= S_MAX):
            raise DomainError(
                f"beta={beta!r} puts theta argument {arg!r} outside "
                f"[{S_MIN}, {S_MAX}]")
    return a, b


def _value_pair(family, a, b, tol):
    """f(a) f(b)."""
    return mul(eval_theta(family, a, tol=tol), eval_theta(family, b, tol=tol))


def _slope_pair(family, a, b, tol):
    """a f'(a) f(b) - b f(a) f'(b), which is (beta/2) d/dbeta [f(a) f(b)]
    because da/dbeta = 2a/beta and db/dbeta = -2b/beta."""
    fa = eval_theta(family, a, tol=tol)
    fb = eval_theta(family, b, tol=tol)
    return sub(mul(scale(eval_theta(family, a, 1, tol), a), fb),
               mul(fa, scale(eval_theta(family, b, 1, tol), b)))


def _bounds(pair, n, beta, tol):
    """(A, B) as balls, with pair(f) standing for the product f(a) f(b):
    n pair(theta4) and n pair(theta3), less 2n pair(theta_odd) for odd n."""
    a, b = _theta_args(n, beta)
    lo = pair(THETA4, a, b, tol)
    hi = pair(THETA3, a, b, tol)
    if n % 2:
        odd = scale(pair(THETA_ODD, a, b, tol), 2.0)
        lo = sub(lo, odd)
        hi = sub(hi, odd)
    return scale(lo, n), scale(hi, n)


def _frame_slopes(n: int, beta: float):
    """Balls of (beta/2) dA/dbeta and (beta/2) dB/dbeta at a validated
    lattice, with the theta arguments rounded as frame_bounds rounds them.

    Near the optimum the slopes are tiny, so a 1e-12 truncation target
    would hide their sign (1e-10 from it at n = 5); 1e-16 leaves rounding.
    """
    return _bounds(_slope_pair, n, beta, 1e-16)


def frame_bounds(params: LatticeParams,
                 tol: float = DEFAULT_TOL) -> FrameBounds:
    """Bounds of a lattice; its LatticeParams were validated on creation."""
    if not isinstance(params, LatticeParams):
        raise DomainError(f"expected LatticeParams, got {params!r}")
    lower, upper = _bounds(_value_pair, params.n, params.beta, tol)
    error_bound = max(lower.error_bound, upper.error_bound)
    ratio = upper.value / lower.value if lower.value > 0.0 else math.inf
    return FrameBounds(lower.value, upper.value, ratio, error_bound,
                       lower.value > error_bound)


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
