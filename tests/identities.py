"""Identity residuals of the direct series, for the tests.

The small-s transform that eval_theta takes below the cutoff is the very
identity these residuals measure, so every side here is summed by the
direct series (theta._series) at its own argument. The residuals are bare
floats with no bound: the tests compare them with fixed thresholds.
"""

import math

from thetaframe import DomainError, ball, theta


def direct(kind, s, order=0, tol=1e-12, z=None):
    """The direct series' Ball of a family at s, on either side of the
    cutoff: eval_theta's value and bound from s = 1/4 up."""
    terms, rest = theta._series(kind, float(s), order, tol, z)
    return ball.Ball(*theta._ball(terms, rest))


def jacobi_identity_residual(s, tol=1e-12):
    """|theta3(1/s) - sqrt(s) theta3(s)|."""
    s = float(s)
    lhs = direct("theta3", 1.0 / s, 0, tol).value
    return abs(lhs - math.sqrt(s) * direct("theta3", s, 0, tol).value)


def _log_ratio(s, tol):
    """s theta3'(s) / theta3(s)."""
    return s * direct("theta3", s, 1, tol).value / direct("theta3", s, 0,
                                                          tol).value


def fact2_residual(s, tol=1e-12):
    """|g3(s) + g3(1/s) + 1/2| with g3 = s theta3'/theta3.

    The differentiated reflection identity forces the two log-ratios to
    sum to -1/2 for every s > 0.
    """
    s = float(s)
    return abs(_log_ratio(s, tol) + _log_ratio(1.0 / s, tol) + 0.5)


def theta_odd_poisson_residual(r, s, tol=1e-12):
    """|theta_odd(rs) - theta4(1/(4rs)) / (2 sqrt(rs))|."""
    r = float(r)
    s = float(s)
    if not (r > 0.0 and s > 0.0):
        raise DomainError("r and s must be positive")
    rs = r * s
    rhs = direct("theta4", 1.0 / (4.0 * rs), 0, tol).value
    return abs(direct("theta_odd", rs, 0, tol).value
               - rhs / (2.0 * math.sqrt(rs)))
