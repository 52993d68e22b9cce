"""High-precision references for the correctness gates (mpmath, 50 digits).

Every family is a Gaussian sum sum_k w(k) exp(-pi (k + z)^2 s) or its
Poisson dual, so one routine covers theta3 (z = 0), theta4 (z = 1/2 on the
dual side), theta_odd and Theta(z, is):

    s >= 1/2:  direct series, k in [-K, K]
    s <  1/2:  Theta(z, is) = s^{-1/2} sum_k exp(-pi (k + z)^2 / s)

with the s-derivatives of each dual term taken in closed form. K = 12
leaves a neglected tail below 1e-90 relative on both sides of the split,
far under the 50-digit working precision.
"""

from __future__ import annotations

import sys

import mpmath

_K = 12
_DPS = 50


def _dual_terms(z, s, order):
    """sum_k d^m/ds^m [s^{-1/2} exp(-a_k / s)], a_k = pi (k + z)^2."""
    total = mpmath.mpf(0)
    for k in range(-_K, _K + 1):
        a = mpmath.pi * (k + z) ** 2
        g = s ** mpmath.mpf(-0.5) * mpmath.exp(-a / s)
        if order == 0:
            total += g
            continue
        h = -1 / (2 * s) + a / s ** 2          # (log g)'
        if order == 1:
            total += g * h
        else:
            total += g * (h * h + 1 / (2 * s ** 2) - 2 * a / s ** 3)
    return total


def _direct_terms(s, order, sign_alternating=False, odd_only=False,
                  z=None):
    total = mpmath.mpf(0)
    for k in range(-_K, _K + 1):
        if odd_only and k % 2 == 0:
            continue
        p = mpmath.pi * k * k
        w = (1, -p, p * p)[order]
        t = w * mpmath.exp(-p * s)
        if sign_alternating and k % 2:
            t = -t
        if z is not None:
            t *= mpmath.cos(2 * mpmath.pi * k * z)
        total += t
    return total


def theta(kind: str, s: float, order: int, z: float | None = None):
    """Reference value of the named family (or its s-derivative) at s."""
    with mpmath.workdps(_DPS):
        s = mpmath.mpf(s)
        half = mpmath.mpf(1) / 2
        if s >= half:
            if kind == "theta3":
                return _direct_terms(s, order)
            if kind == "theta4":
                return _direct_terms(s, order, sign_alternating=True)
            if kind == "theta_odd":
                return _direct_terms(s, order, odd_only=True)
            return _direct_terms(s, order, z=mpmath.mpf(z))
        if kind == "theta3":
            return _dual_terms(0, s, order)
        if kind == "theta4":
            return _dual_terms(half, s, order)
        if kind == "theta_odd":
            return (_dual_terms(0, s, order) - _dual_terms(half, s, order)) / 2
        return _dual_terms(mpmath.mpf(z), s, order)


def frame_bounds(n: int, a: float, b: float):
    """Reference (A, B) of the closed forms at theta arguments a and b."""
    with mpmath.workdps(_DPS):
        t3 = theta("theta3", a, 0) * theta("theta3", b, 0)
        t4 = theta("theta4", a, 0) * theta("theta4", b, 0)
        if n % 2:
            to = theta("theta_odd", a, 0) * theta("theta_odd", b, 0)
            t3 -= 2 * to
            t4 -= 2 * to
        return n * t4, n * t3


def contains(value: float, bound: float, ref) -> bool:
    """True when |value - ref| <= bound, decided in 50-digit arithmetic."""
    with mpmath.workdps(_DPS):
        return abs(mpmath.mpf(value) - ref) <= mpmath.mpf(bound)


def underflowed(value: float, ref) -> bool:
    """Both the result and the true value lie below the normal float range.

    Such a result carries no information (the known theta4 underflow at
    small s); it is counted as uninformative rather than as a miss.
    """
    tiny = mpmath.mpf(sys.float_info.min)
    return abs(value) < sys.float_info.min and abs(ref) < tiny
