"""Numerical verification suites for the theta inequalities.

run_all is the one way to run a suite. Each suite samples a grid,
computes the claimed inequality's margin at every point, and passes only
when each margin exceeds the propagated evaluation error. Results never
round in the claim's favour: a margin at or below its error bound fails
the suite. exp-sum-log-convexity and the informational conjecture's
convexity part record a ball's upper end: only a ball wholly <= 0 fails.

Two conditioning devices keep the margins honest at small s, where direct
floating-point evaluation would drown genuine but tiny margins in noise:

* the log-ratio reflection  g3(s) = -1/2 - g3(1/s)  turns comparisons at
  s < 1 into comparisons of well-scaled quantities at 1/s > 1;
* the chain margin  m1(s) = theta3''theta3 - theta3'^2 + theta3'theta3/s
  satisfies  m1(s) = (1/s)^5 m1(1/s),  so below 1 it is computed at the
  reflected argument and rescaled.

Both identities follow from differentiating the theta3 reflection formula;
their own correctness is covered by the identity-residual checks.

Margins and their errors are balls propagated with the rules of ball.py,
the one place where rounding is accounted for. Every theta value comes
from eval_theta, whose truncation is below its rounding; the
inequalities and their r values are fixed, and only the grids vary.
"""

from __future__ import annotations

import math
from functools import cache, partial
from itertools import pairwise
from typing import NamedTuple

from .ball import add, div, fsum, mul, neg, scale, sub
from .errors import DomainError
from .grids import GridSpec
from .theta import (THETA3, THETA4, THETA_ODD, eval_theta,
                    log_deriv_ratio_bounds)

_EPS = math.ulp(1.0)

# r values of the pair suites; the theta4 combination holds only for r >= 1
PRODUCT_R = (0.5, 1.0, 2.0, 5.0)
ODD_MAXIMUM_R = (1.0, 2.0, 5.0)


class CheckResult(NamedTuple):
    """Outcome of one verification suite.

    worst_residual is the smallest margin-minus-error over every assertion
    the suite makes: nan when a margin could not be evaluated, inf when
    the suite asserted nothing. The suite passes iff it is positive and
    finite. worst_location is the grid point (or point pair) achieving
    it. low_margin flags a pass whose margin sits unusually close to
    zero; informational suites never gate an aggregate verdict.
    """

    name: str
    passed: bool
    worst_residual: float
    worst_location: float | tuple[float, float] | None
    points_tested: int
    low_margin: bool = False
    informational: bool = False


class _Tracker:
    """Collects (margin - error) slacks and remembers the worst one."""

    informational = False

    def __init__(self):
        self.worst = math.inf
        self.location = None
        self.low = False

    def add(self, margin, location, magnitude=None):
        """Record a margin ball; magnitude sets a relative low-margin test."""
        m, err = margin
        slack = m - err
        # a nan slack (unevaluable margin) is the worst and stays so
        if (self.location is None
                or not (slack >= self.worst or math.isnan(self.worst))):
            self.worst = slack
            self.location = location
        if magnitude is not None and magnitude > 0.0 and m / magnitude < 1e-6:
            self.low = True
        elif magnitude is None and err > 0.0 and m < 1e3 * err:
            self.low = True

    def result(self, name, points):
        return CheckResult(name, 0.0 < self.worst < math.inf, self.worst,
                           self.location, points, self.low,
                           self.informational)


def _exact(x):
    return x, 0.0


_HALF = _exact(0.5)


def _ball(tv):
    """A ThetaValue as a ball: its value and error bound."""
    return tv.value, tv.error_bound


def _theta_table():
    """A fresh theta table for one run: table(family, m) is a cached
    s -> ball of theta^(m)(s), and table(family) one of g(s) = s theta'/theta.

    Each distinct value is computed once per run, always through the
    module-level eval_theta and log_deriv_ratio_bounds as bound at the
    time of the call. Suites fetch each table once and index it by s.
    """
    @cache
    def table(family, order=None):
        if order is None:
            return cache(lambda s: log_deriv_ratio_bounds(family, s))
        return cache(lambda s: _ball(eval_theta(family, s, order)))
    return table


def _monotone_log_ratio(family, track, theta, config):
    """Strict monotonicity and range of g(s) = s theta'/theta.

    theta3: g increasing with values in (-1/2, 0); below s = 1 it is
    evaluated at 1/s through the reflection g(s) = -1/2 - g(1/s), so tiny
    margins stay resolvable. theta4: g decreasing and positive.
    low_margin flags margins below 1e-6 relative to the compared values.
    """
    pts = config.monotone_grid.points()
    reflect = family == THETA3
    g = theta(family)
    gs = [g(1.0 / s if reflect and s < 1.0 else s) for s in pts]
    for (a, ga), (b, gb) in pairwise(zip(pts, gs)):
        if not reflect or b <= 1.0:  # theta4, or g3(1/a) - g3(1/b)
            margin = sub(ga, gb)
        elif a >= 1.0:
            margin = sub(gb, ga)
        else:  # g3(b) - g3(a) = g3(b) + 1/2 + g3(1/a)
            margin = add(add(gb, _HALF), ga)
        track.add(margin, (a, b),
                  magnitude=abs(ga[0]) + abs(gb[0]) + 1e-300)
    for s, gx in zip(pts, gs):
        if reflect:
            track.add(neg(gx), s)
            track.add(add(gx, _HALF), s)
        else:
            track.add(gx, s)
    return len(pts)


def _dlog_product(v, d, s):
    """theta'theta/s as a ball, from theta and theta' at s."""
    return div(mul(d, v), _exact(s))


def _chain(f, s):
    """theta''theta - theta'^2 + theta'theta/s and theta'theta/s as balls,
    from f, a family's tables of orders 0, 1 and 2."""
    v, d, w = (t(s) for t in f)
    dv = _dlog_product(v, d, s)
    return fsum((mul(w, v), neg(mul(d, d)), dv)), dv


def _refined_inequalities(track, theta, config):
    """Refined log-convexity/concavity chains.

    theta3:  theta3''theta3 - theta3'^2 > -theta3'theta3/s > 0
    theta4:  theta4''theta4 - theta4'^2 < -theta4'theta4/s < 0

    Each chain splits into the two margins m1 (gap between the sides) and
    m2 (the inner quantity's sign). The theta3 m1 below s = 1 uses the
    (1/s)^5 reflection scaling; everything else evaluates in place.
    """
    pts = config.refined_grid.points()
    f3, f4 = ([theta(f, m) for m in range(3)] for f in (THETA3, THETA4))
    for s in pts:
        # theta3 chain
        if s >= 1.0:
            m1, dv = _chain(f3, s)
        else:
            u = _exact(1.0 / s)  # m1(1/u) = u^5 m1(u) at the rounded u
            u2 = mul(u, u)
            m1 = mul(mul(mul(u2, u2), u), _chain(f3, u[0])[0])
            dv = _dlog_product(f3[0](s), f3[1](s), s)
        track.add(m1, s)
        track.add(neg(dv), s)
        # theta4 chain (signs flipped; below the cutoff all three orders
        # come from the modular transform, so the bounds stay relative
        # even where theta4 itself is tiny)
        m1, dv = _chain(f4, s)
        track.add(neg(m1), s)  # the m1 - m2 gap
        track.add(dv, s)
    return len(pts)


def _symmetric_center(pts):
    """Center index of an odd-length grid whose mirrored points multiply to
    1 within 8 ulps; the center, its own mirror, is then a few ulps from 1."""
    if len(pts) % 2 == 0 or any(abs(a * b - 1.0) > 8 * _EPS
                                for a, b in zip(pts, reversed(pts))):
        raise DomainError("pair suites need an odd grid symmetric about s = 1")
    return len(pts) // 2


def _extremum_at_center(track, half, pts, r, maximum):
    """Assert every value of half, the pair values up to the grid's center,
    lies strictly beyond its last, the center value; the values are
    symmetric bit for bit, so the right half would repeat the assertions."""
    *left, ref = half
    for s, v in zip(pts, left):
        gap = sub(ref, v) if maximum else sub(v, ref)
        track.add(gap, (r, s))


def _pair_extremum(family, odd, track, theta, config):
    """f(rs) f(r/s), less 2 theta_odd(rs) theta_odd(r/s) if odd, on a grid
    symmetric about s = 1: theta3 values dip to their minimum at s = 1 and
    theta4 values peak there, for each r in PRODUCT_R (ODD_MAXIMUM_R for
    the theta4 combination, which holds only for r >= 1).

    frame's a = n^2 beta^2/2 and b = 1/(2 beta^2) are rs and r/s with
    r = n/2 and s = n beta^2, so each value is A/n (theta4) or B/n
    (theta3) along beta at n = 2r, odd giving the odd-n form, with the
    square lattice at s = 1. The second factor at s_i is taken at the
    mirrored point r s_{G-1-i}, which the symmetric-grid precondition
    puts within 8 ulps of r/s_i. theta is read once per r s_i, and as mul
    commutes bit for bit only the pairs up to the center are multiplied.

    The theta3 combination also asserts that the theta_odd product alone
    peaks at s = 1. Its worst_residual is the smallest absolute slack of
    both claims: on the default grid the theta_odd product's (7.65e-17,
    error 3.5e-27), not the combination's (3.7e-9). The worst
    assertion's name would tell them apart.
    """
    maximum = family == THETA4
    r_values = ODD_MAXIMUM_R if odd and maximum else PRODUCT_R
    pts = config.product_grid.points()
    half = _symmetric_center(pts) + 1
    f, f_odd = theta(family, 0), theta(THETA_ODD, 0)
    for r in r_values:
        fs = [f(r * s) for s in pts]
        vals = [mul(a, b) for a, b in zip(fs[:half], reversed(fs))]
        if odd:
            fs = [f_odd(r * s) for s in pts]
            odds = [mul(a, b) for a, b in zip(fs[:half], reversed(fs))]
            vals = [sub(a, scale(b, 2.0)) for a, b in zip(vals, odds)]
        _extremum_at_center(track, vals, pts, r, maximum)
        if odd and not maximum:
            _extremum_at_center(track, odds, pts, r, maximum=True)
    return len(r_values) * len(pts)


def _lemma_odd_ratio(track, theta, config):
    """Behaviour of g_o(s) = s theta_odd'/theta_odd.

    Strictly decreasing on [1/4, 10]; bounded below by g_o(1) on
    (0, 1/4]; and within 0.05 of its small-s limit -1/2 at s = 1e-3.
    The grid must span [1e-3, 10].
    """
    s_grid = config.odd_ratio_grid
    if s_grid.min > 1e-3 or s_grid.max < 10.0:
        raise DomainError("grid must span [1e-3, 10]")
    pts = s_grid.points()
    g = theta(THETA_ODD)
    gs, g1 = [g(s) for s in pts], g(1.0)  # every s, even a lone one above 1/4
    for s, gx in zip(pts, gs):
        if s <= 0.25:
            track.add(sub(gx, g1), s)
    upper = [(s, gx) for s, gx in zip(pts, gs) if s >= 0.25]
    for (a, ga), (b, gb) in pairwise(upper):
        track.add(sub(ga, gb), (a, b))
    gap, r_gap = add(g(1e-3), _HALF)
    # |x| has the radius of x
    track.add(sub(_exact(0.05), (abs(gap), r_gap)), 1e-3)
    return len(pts)


def _logconvexity(track, theta, config):
    """Log-convexity theta3''theta3 - theta3'^2 >= 0. Only a ball wholly
    below zero fails: at large s theta3' and theta3'' underflow to 0."""
    pts = config.logconv_grid.points()
    f, d, w = (theta(THETA3, m) for m in range(3))
    for s in pts:
        d_s = d(s)
        resid, r_resid = sub(mul(w(s), f(s)), mul(d_s, d_s))
        track.add(_exact(resid + r_resid), s)
    return len(pts)


def _theta4_ratio_conjecture(track, theta, config):
    """Exploratory: s^2 theta4'/theta4 looks decreasing and convex.

    Reported for information only; never gates an aggregate verdict. The
    convexity part uses second differences, so the grid must be linear.
    """
    grid = config.conjecture_grid
    if grid.scale != "linear":
        raise DomainError("conjecture check expects a linear grid")
    track.informational = True
    pts = grid.points()
    g = theta(THETA4)
    hs = [scale(g(s), s) for s in pts]
    for i in range(len(pts) - 1):
        track.add(sub(hs[i], hs[i + 1]), (pts[i], pts[i + 1]))
    for i in range(1, len(pts) - 1):
        # convexity up to the error: second difference >= -its radius
        second, r_second = add(sub(hs[i + 1], scale(hs[i], 2.0)), hs[i - 1])
        track.add(_exact(second + r_second), pts[i])
    return len(pts)


class VerifyConfig(NamedTuple("VerifyConfig", [
        ("suites", tuple[str, ...] | None), ("monotone_grid", GridSpec),
        ("refined_grid", GridSpec), ("product_grid", GridSpec),
        ("odd_ratio_grid", GridSpec), ("logconv_grid", GridSpec),
        ("conjecture_grid", GridSpec)])):
    """Suite selection and grids for run_all.

    suites=None runs every suite in SUITE_NAMES, a non-empty list or tuple
    of names only those, still in registry order; anything else is a
    DomainError.
    The inequalities and their r values are fixed; only the grids are
    settable.
    """

    __slots__ = ()

    def __new__(cls, suites=None,
                monotone_grid=GridSpec(0.05, 20.0, 1000, "log"),
                refined_grid=GridSpec(0.05, 10.0, 500, "log"),
                product_grid=GridSpec(1.0 / 3.0, 3.0, 301, "log"),
                odd_ratio_grid=GridSpec(1e-3, 10.0, 1250, "log"),
                logconv_grid=GridSpec(0.1, 10.0, 200, "log"),
                conjecture_grid=GridSpec(0.5, 5.0, 200, "linear")):
        grids = (monotone_grid, refined_grid, product_grid, odd_ratio_grid,
                 logconv_grid, conjecture_grid)
        for name, grid in zip(cls._fields[1:], grids):
            if not isinstance(grid, GridSpec):
                raise DomainError(f"{name}={grid!r} must be a GridSpec")
        if suites is not None:
            if not (isinstance(suites, (list, tuple)) and suites):
                raise DomainError(f"suites={suites!r} must be None or a "
                                  "non-empty list or tuple of suite names")
            suites = tuple(suites)
            unknown = [s for s in suites if s not in SUITE_NAMES]
            if unknown:
                raise DomainError(
                    f"unknown suites {unknown!r}; "
                    f"valid names: {list(SUITE_NAMES)!r}")
        return super().__new__(cls, suites, *grids)

    # so _replace, which calls _make, validates too
    _make = classmethod(lambda cls, fields: cls(*fields))


# suite name -> body(track, theta table, config), which returns the
# number of points it tested; run_all reports the suites in this order
_SUITES = {
    "theta3-log-ratio-monotone": partial(_monotone_log_ratio, THETA3),
    "theta4-log-ratio-monotone": partial(_monotone_log_ratio, THETA4),
    "refined-log-convexity-concavity": _refined_inequalities,
    "theta3-product-minimum": partial(_pair_extremum, THETA3, False),
    "theta4-product-maximum": partial(_pair_extremum, THETA4, False),
    "odd-combination-minimum": partial(_pair_extremum, THETA3, True),
    "odd-combination-maximum": partial(_pair_extremum, THETA4, True),
    "odd-log-ratio": _lemma_odd_ratio,
    "exp-sum-log-convexity": _logconvexity,
    "theta4-ratio-conjecture": _theta4_ratio_conjecture,
}

SUITE_NAMES = tuple(_SUITES)


def run_all(config: VerifyConfig | None = None) -> list[CheckResult]:
    """Run the selected suites in registry order (deterministic), all
    reading theta values from one table made for this call."""
    config = config if config is not None else VerifyConfig()
    if not isinstance(config, VerifyConfig):
        raise DomainError(f"config={config!r} must be a VerifyConfig")
    theta, results = _theta_table(), []
    for name, suite in _SUITES.items():
        if config.suites is None or name in config.suites:
            track = _Tracker()
            results.append(track.result(name, suite(track, theta, config)))
    return results


def all_passed(results) -> bool:
    """Aggregate verdict, ignoring informational suites."""
    return all(r.passed for r in results if not r.informational)
