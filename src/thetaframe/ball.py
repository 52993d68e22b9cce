"""Midpoint-radius ("ball") arithmetic in float64: the one place where
rounding errors are propagated.

A ball (value, error_bound) stands for the interval
[value - error_bound, value + error_bound]. This is the model of Arb
(F. Johansson, "Arb: efficient arbitrary-precision midpoint-radius interval
arithmetic", IEEE Trans. Comput. 2017) reduced to float64. Every rule takes
operands with .value and .error_bound, so a ThetaValue is an operand as is,
and returns a Ball that contains the exact result for every pair of points
of its operands.

Each rule computes the midpoint in round-to-nearest and a propagated radius
p (the width the exact operation gives the operand intervals), then widens
p in _rounded: eps |value| covers the rounding of the midpoint, 4 eps p
covers up to six round-to-nearest steps in computing p, and a few
subnormal ulps cover absolute rounding below the normal range.
"""

from __future__ import annotations

import math

_EPS = math.ulp(1.0)
_UNDERFLOW = 8 * 5e-324  # absolute error of eight roundings below 2^-1022


class Ball:
    """The interval [value - error_bound, value + error_bound]."""

    __slots__ = ("value", "error_bound")

    def __init__(self, value: float, error_bound: float):
        self.value = value
        self.error_bound = error_bound


def _rounded(value: float, p: float) -> Ball:
    return Ball(value, p + _EPS * (abs(value) + 4.0 * p) + _UNDERFLOW)


def add(x, y) -> Ball:
    """x + y."""
    return _rounded(x.value + y.value, x.error_bound + y.error_bound)


def neg(x) -> Ball:
    """-x; negation is exact."""
    return Ball(-x.value, x.error_bound)


def sub(x, y) -> Ball:
    """x - y."""
    return _rounded(x.value - y.value, x.error_bound + y.error_bound)


def mul(x, y) -> Ball:
    """x * y."""
    a, ra = x.value, x.error_bound
    b, rb = y.value, y.error_bound
    return _rounded(a * b, abs(a) * rb + abs(b) * ra + ra * rb)


def scale(x, c: float) -> Ball:
    """c * x for an exact float c."""
    return _rounded(c * x.value, abs(c) * x.error_bound)


def div(x, y) -> Ball:
    """x / y; the radius is infinite when the divisor ball contains 0.

    Over the divisor ball |y| >= |y.value| - y.error_bound = d, which
    bounds the quotient's spread by r_x / d + |x/y| r_y / d. A zero
    divisor midpoint raises ZeroDivisionError, as float division does.
    """
    v = x.value / y.value
    d = abs(y.value) - y.error_bound
    if not d > 0.0:
        return Ball(v, math.inf)
    return _rounded(v, x.error_bound / d + abs(v) * (y.error_bound / d))


def fsum(balls) -> Ball:
    """Sum of balls; the midpoint sum and the radius sum round once each."""
    return _rounded(math.fsum([b.value for b in balls]),
                    math.fsum([b.error_bound for b in balls]))
