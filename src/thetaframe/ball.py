"""Midpoint-radius ("ball") arithmetic in float64: the one place where
rounding errors are propagated.

A ball is a plain pair (value, radius) that stands for the interval
[value - radius, value + radius]. This is the model of Arb
(F. Johansson, "Arb: efficient arbitrary-precision midpoint-radius interval
arithmetic", IEEE Trans. Comput. 2017) reduced to float64. Every rule takes
pairs and returns a pair that contains the exact result for every pair of
points of its operands. A record with a bound, such as a ThetaValue, is
not an operand: a caller passes (tv.value, tv.error_bound).

Each rule computes the midpoint in round-to-nearest and a propagated radius
p (the width the exact operation gives the operand intervals), then widens
p in _rounded: eps |value| covers the rounding of the midpoint, 4 eps p
covers up to six round-to-nearest steps in computing p, and a few
subnormal ulps cover absolute rounding below the normal range.

theta's charges (_series, _ball, theta4_triple_product) assume math.exp,
math.expm1 and math.cos within one ulp of the exact function at their
float argument (tested against mpmath on [-745, 0], [-50, 0], [0, 2e4]).
"""

from __future__ import annotations

import math

_EPS = math.ulp(1.0)
_UNDERFLOW = 8 * 5e-324  # absolute error of eight roundings below 2^-1022


def _rounded(value: float, p: float) -> tuple[float, float]:
    return value, p + _EPS * (abs(value) + 4.0 * p) + _UNDERFLOW


def add(x, y):
    """x + y."""
    (a, ra), (b, rb) = x, y
    return _rounded(a + b, ra + rb)


def neg(x):
    """-x; negation is exact."""
    a, ra = x
    return -a, ra


def sub(x, y):
    """x - y."""
    (a, ra), (b, rb) = x, y
    return _rounded(a - b, ra + rb)


def mul(x, y):
    """x * y."""
    (a, ra), (b, rb) = x, y
    return _rounded(a * b, abs(a) * rb + abs(b) * ra + ra * rb)


def scale(x, c: float):
    """c * x for an exact float c."""
    a, ra = x
    return _rounded(c * a, abs(c) * ra)


def div(x, y):
    """x / y; the radius is infinite when the divisor ball contains 0.

    Over the divisor ball (b, rb), |y| >= |b| - rb = d, which bounds the
    quotient's spread by ra / d + |a/b| rb / d. A zero divisor midpoint
    raises ZeroDivisionError, as float division does.
    """
    (a, ra), (b, rb) = x, y
    v = a / b
    d = abs(b) - rb
    if not d > 0.0:
        return v, math.inf
    return _rounded(v, ra / d + abs(v) * (rb / d))


def fsum(balls):
    """Sum of balls; the midpoint sum and the radius sum round once each."""
    values, radii = zip(*balls)
    return _rounded(math.fsum(values), math.fsum(radii))
