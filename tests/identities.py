"""Identity residuals of the direct series and a naive partial sum, for
the tests.

The small-s transform that eval_theta takes below the cutoff is the very
identity these residuals measure, so every side here is summed by the
direct series (theta._series) at its own argument. The residuals are bare
floats with no bound: the tests compare them with fixed thresholds.
"""

import math

from thetaframe import DomainError, theta


def direct(kind, s, order=0, z=None):
    """The direct series' ball (value, radius) of a family at s, on either
    side of the cutoff: eval_theta's value and bound from s = 1/4 up."""
    return theta._ball(*theta._series(kind, float(s), order, z))


def jacobi_identity_residual(s):
    """|theta3(1/s) - sqrt(s) theta3(s)|."""
    s = float(s)
    lhs = direct("theta3", 1.0 / s)[0]
    return abs(lhs - math.sqrt(s) * direct("theta3", s)[0])


def _log_ratio(s):
    """s theta3'(s) / theta3(s)."""
    return s * direct("theta3", s, 1)[0] / direct("theta3", s)[0]


def fact2_residual(s):
    """|g3(s) + g3(1/s) + 1/2| with g3 = s theta3'/theta3.

    The differentiated reflection identity forces the two log-ratios to
    sum to -1/2 for every s > 0.
    """
    s = float(s)
    return abs(_log_ratio(s) + _log_ratio(1.0 / s) + 0.5)


def naive_theta(family, s, k_max):
    """Plain partial sum over |k| <= k_max (odd family: |2k+1| <= 2k_max+1),
    with no error control: an independent cross-check on eval_theta."""
    if family.kind == "theta_odd":
        return math.fsum(2.0 * math.exp(-math.pi * (2 * j + 1) ** 2 * s)
                         for j in range(k_max + 1))
    terms = [1.0]
    for k in range(1, k_max + 1):
        t = 2.0 * math.exp(-math.pi * k * k * s)
        if family.kind == "theta4" and k % 2:
            t = -t
        elif family.kind == "theta_general":
            t *= math.cos(2.0 * math.pi * family.z * k)
        terms.append(t)
    return math.fsum(terms)


def theta_odd_poisson_residual(r, s):
    """|theta_odd(rs) - theta4(1/(4rs)) / (2 sqrt(rs))|."""
    r = float(r)
    s = float(s)
    if not (r > 0.0 and s > 0.0):
        raise DomainError("r and s must be positive")
    rs = r * s
    rhs = direct("theta4", 1.0 / (4.0 * rs))[0]
    return abs(direct("theta_odd", rs)[0]
               - rhs / (2.0 * math.sqrt(rs)))
