"""Numerical verification suites for the theta inequalities.

Each check samples a grid, computes the claimed inequality's margin at
every point, and passes only when each margin exceeds the propagated
evaluation error. Results never round in the claim's favour: a margin at
or below its error bound fails the check.

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
the one place where rounding is accounted for. Every theta value is
evaluated at the default truncation target DEFAULT_TOL = 1e-12; the
inequalities and their r values are fixed, and only the grids vary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ball import Ball, add, div, fsum, mul, neg, scale, sub
from .errors import DomainError
from .grids import GridSpec
from .theta import (THETA3, THETA4, THETA_ODD, DerivativeOrder,
                    ThetaFamily, eval_theta, log_deriv_ratio_bounds)

_EPS = math.ulp(1.0)

EQUALITY_TOL = 1e-13
SYMMETRY_TOL = 1e-12
# r values of the product and odd-combination suites; the theta4
# combination holds only for r >= 1
PRODUCT_R = (0.5, 1.0, 2.0, 5.0)
ODD_MAXIMUM_R = (1.0, 2.0, 5.0)


@dataclass(frozen=True)
class CheckResult:
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

    def __init__(self):
        self.worst = math.inf
        self.location = None
        self.low = False

    def add(self, margin, location, magnitude=None):
        """Record a margin ball; magnitude sets a relative low-margin test."""
        m, err = margin.value, margin.error_bound
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

    def result(self, name, points, informational=False):
        return CheckResult(name, 0.0 < self.worst < math.inf, self.worst,
                           self.location, points, self.low, informational)


def _exact(x):
    return Ball(x, 0.0)


_HALF = _exact(0.5)


def _ratios(family, args):
    """g(s) = s theta'/theta as a ball, once for each distinct s in args."""
    return {s: Ball(*log_deriv_ratio_bounds(family, s))
            for s in dict.fromkeys(args)}


def check_monotone_log_ratio(family: ThetaFamily,
                             grid: GridSpec) -> CheckResult:
    """Strict monotonicity and range of g(s) = s theta'/theta.

    theta3: g increasing with values in (-1/2, 0); below s = 1 it is
    evaluated at 1/s through the reflection g(s) = -1/2 - g(1/s), so tiny
    margins stay resolvable. theta4: g decreasing and positive.
    low_margin flags margins below 1e-6 relative to the compared values.
    """
    if family.kind not in ("theta3", "theta4"):
        raise DomainError("monotone log-ratio check needs theta3 or theta4")
    pts = grid.points()
    reflect = family.kind == "theta3"
    args = [1.0 / s if reflect and s < 1.0 else s for s in pts]
    g = _ratios(family, args)
    track = _Tracker()
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        ga, gb = g[args[i]], g[args[i + 1]]
        if not reflect or b <= 1.0:  # theta4, or g3(1/a) - g3(1/b)
            margin = sub(ga, gb)
        elif a >= 1.0:
            margin = sub(gb, ga)
        else:  # g3(b) - g3(a) = g3(b) + 1/2 + g3(1/a)
            margin = add(add(gb, _HALF), ga)
        track.add(margin, (a, b),
                  magnitude=abs(ga.value) + abs(gb.value) + 1e-300)
    for s, x in zip(pts, args):
        if reflect:
            track.add(neg(g[x]), s)
            track.add(add(g[x], _HALF), s)
        else:
            track.add(g[x], s)
    return track.result(f"{family.kind}-log-ratio-monotone", len(pts))


def _dlog_product(v, d, s):
    """theta'theta/s as a ball, from theta and theta' at s."""
    return div(mul(d, v), _exact(s))


def _chain(family, s):
    """theta''theta - theta'^2 + theta'theta/s and theta'theta/s as balls."""
    v, d, w = (eval_theta(family, s, m) for m in DerivativeOrder)
    dv = _dlog_product(v, d, s)
    return fsum((mul(w, v), neg(mul(d, d)), dv)), dv


def check_refined_inequalities(grid: GridSpec) -> CheckResult:
    """Refined log-convexity/concavity chains.

    theta3:  theta3''theta3 - theta3'^2 > -theta3'theta3/s > 0
    theta4:  theta4''theta4 - theta4'^2 < -theta4'theta4/s < 0

    Each chain splits into the two margins m1 (gap between the sides) and
    m2 (the inner quantity's sign). The theta3 m1 below s = 1 uses the
    (1/s)^5 reflection scaling; everything else evaluates in place.
    """
    pts = grid.points()
    track = _Tracker()
    for s in pts:
        # theta3 chain
        if s >= 1.0:
            m1, dv = _chain(THETA3, s)
        else:
            u = _exact(1.0 / s)  # m1(1/u) = u^5 m1(u) at the rounded u
            u2 = mul(u, u)
            m1 = mul(mul(mul(u2, u2), u), _chain(THETA3, u.value)[0])
            dv = _dlog_product(eval_theta(THETA3, s, 0),
                               eval_theta(THETA3, s, 1), s)
        track.add(m1, s)
        track.add(neg(dv), s)
        # theta4 chain (signs flipped; below the cutoff all three orders
        # come from the modular transform, so the bounds stay relative
        # even where theta4 itself is tiny)
        m1, dv = _chain(THETA4, s)
        track.add(neg(m1), s)  # the m1 - m2 gap
        track.add(dv, s)
    return track.result("refined-log-convexity-concavity", len(pts))


def _center_index(pts):
    return min(range(len(pts)), key=lambda i: abs(math.log(pts[i])))


def _pair_values(family, r, pts):
    return [mul(eval_theta(family, r * s), eval_theta(family, r / s))
            for s in pts]


def check_product_inequality(family: ThetaFamily, r_values,
                             s_grid: GridSpec) -> CheckResult:
    """f(rs) f(r/s) versus f(r)^2 on a grid symmetric about s = 1.

    theta3 products dip to their minimum exactly at s = 1; theta4 products
    peak there. Asserts strict margins off-center, two-sided equality at
    the center to 1e-13, and the s <-> 1/s symmetry of the product to
    1e-12.
    """
    if family.kind not in ("theta3", "theta4"):
        raise DomainError("product inequality check needs theta3 or theta4")
    maximum = family.kind == "theta4"
    name = "theta4-product-maximum" if maximum else "theta3-product-minimum"
    pts = s_grid.points()
    center = _center_index(pts)
    track = _Tracker()
    for r in r_values:
        f = eval_theta(family, r)
        rhs = mul(f, f)
        vals = _pair_values(family, r, pts)
        track.add(_exact(EQUALITY_TOL - abs(vals[center].value - rhs.value)),
                  (r, pts[center]))
        _extremum_at_center(track, vals, pts, center, r, maximum, rhs)
        for i in range(len(pts) // 2):
            j = len(pts) - 1 - i
            track.add(_exact(SYMMETRY_TOL - abs(vals[i].value
                                                - vals[j].value)),
                      (r, pts[i]))
    return track.result(name, len(r_values) * len(pts))


def _extremum_at_center(track, vals, pts, center, r, maximum, ref=None):
    """Assert every off-center value lies strictly beyond ref, which
    defaults to the center value: the grid extremum sits at the center."""
    ref = vals[center] if ref is None else ref
    for i in range(len(pts)):
        if i != center:
            gap = sub(ref, vals[i]) if maximum else sub(vals[i], ref)
            track.add(gap, (r, pts[i]))


def check_odd_combination(family: ThetaFamily, r_values,
                          s_grid: GridSpec) -> CheckResult:
    """f(rs) f(r/s) - 2 theta_odd(rs) theta_odd(r/s) on a grid symmetric
    about s = 1.

    theta4: the combination peaks at s = 1; only valid for r >= 1, so
    smaller r is rejected. theta3: it dips to its minimum there, and the
    theta_odd product alone must peak there (the component fact used when
    combining the bounds).
    """
    if family.kind not in ("theta3", "theta4"):
        raise DomainError("odd combination check needs theta3 or theta4")
    maximum = family.kind == "theta4"
    if maximum:
        for r in r_values:
            if r < 1.0:
                raise DomainError(f"r={r!r} must be >= 1 for the theta4 "
                                  "combination")
    pts = s_grid.points()
    center = _center_index(pts)
    track = _Tracker()
    for r in r_values:
        odd = _pair_values(THETA_ODD, r, pts)
        comb = [sub(a, scale(b, 2.0))
                for a, b in zip(_pair_values(family, r, pts), odd)]
        _extremum_at_center(track, comb, pts, center, r, maximum)
        if not maximum:
            _extremum_at_center(track, odd, pts, center, r, maximum=True)
    name = ("odd-combination-maximum" if maximum
            else "odd-combination-minimum")
    return track.result(name, len(r_values) * len(pts))


def check_lemma_odd_ratio(s_grid: GridSpec) -> CheckResult:
    """Behaviour of g_o(s) = s theta_odd'/theta_odd.

    Strictly decreasing on [1/4, 10]; bounded below by g_o(1) on
    (0, 1/4]; and within 0.05 of its small-s limit -1/2 at s = 1e-3.
    The grid must span [1e-3, 10].
    """
    if s_grid.min > 1e-3 or s_grid.max < 10.0:
        raise DomainError("grid must span [1e-3, 10]")
    pts = s_grid.points()
    track = _Tracker()
    g = _ratios(THETA_ODD, [1.0, 1e-3, *pts])
    upper = [s for s in pts if s >= 0.25]
    for a, b in zip(upper, upper[1:]):
        track.add(sub(g[a], g[b]), (a, b))
    for s in pts:
        if s <= 0.25:
            track.add(sub(g[s], g[1.0]), s)
    gap = add(g[1e-3], _HALF)
    # |x| has the radius of x
    track.add(sub(_exact(0.05), Ball(abs(gap.value), gap.error_bound)), 1e-3)
    return track.result("odd-log-ratio", len(pts))


def check_logconvexity_general(coefficients, s_grid: GridSpec) -> CheckResult:
    """Log-convexity of a finite sum f(s) = sum a_k e^{-b_k s}.

    Checks f''(s) f(s) - f'(s)^2 >= 0 at every grid point: only a ball
    that lies wholly below zero fails, since the quantity vanishes
    identically for a single term and exact zero must not fail. Terms of
    f^{(j)} are formed as (-1)^j exp(log a + j (log b - K) - b s - L), L
    the largest log a - b s at s and K = max(0, largest log b - 340), so
    none overflows and the residual is scaled by e^{-2L - 2K}. The radii
    charge each exp for its own and its argument's rounding, and for one
    subnormal ulp where it underflows. A leading term with a huge rate
    (b s of 1e146 and more once K > 0) is charged about b s ulp for its
    exponent, which bounds nothing: the radius overflows, the point gets
    no verdict and the check fails with an infinite worst residual.
    """
    coeffs = [(float(a), float(b)) for a, b in coefficients]
    for a, b in coeffs:
        if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
            raise DomainError(f"coefficients must be finite and "
                              f"non-negative, got ({a!r}, {b!r})")
    # (log a, b, log b) of the live terms; a zero b has no f', f'' term
    logs = [(math.log(a), b, math.log(b) if b else 0.0)
            for a, b in coeffs if a > 0.0]
    if not logs:
        raise DomainError("need a coefficient pair with positive amplitude")
    big = max(0.0, max(lb for _, _, lb in logs) - 340.0)
    pts = s_grid.points()
    track = _Tracker()
    for s in pts:
        top = max(la - b * s for la, b, _ in logs)
        sums, errs = ([], [], []), [0.0, 0.0, 0.0]
        for la, b, lb in logs:
            x = la - b * s - top
            size = abs(la) + b * s + abs(top)
            for j in range(3 if b else 1):
                e = math.exp(x + j * (lb - big))
                if e:
                    sums[j].append(-e if j == 1 else e)
                    errs[j] += e * (3.0 * (size + j * (abs(lb) + big)) + 8.0)
        f, d, w = (Ball(v, (r + abs(v)) * _EPS + len(logs) * 5e-324)
                   for v, r in zip(map(math.fsum, sums), errs))
        resid = sub(mul(w, f), mul(d, d))
        track.add(_exact(resid.value + resid.error_bound), s)
    return track.result("exp-sum-log-convexity", len(pts))


def check_theta4_ratio_conjecture(grid: GridSpec) -> CheckResult:
    """Exploratory: s^2 theta4'/theta4 looks decreasing and convex.

    Reported for information only; never gates an aggregate verdict. The
    convexity part uses second differences, so the grid must be linear.
    """
    if grid.scale != "linear":
        raise DomainError("conjecture check expects a linear grid")
    pts = grid.points()
    g = _ratios(THETA4, pts)
    hs = [scale(g[s], s) for s in pts]
    track = _Tracker()
    for i in range(len(pts) - 1):
        track.add(sub(hs[i], hs[i + 1]), (pts[i], pts[i + 1]))
    for i in range(1, len(pts) - 1):
        # convexity up to the error: second difference >= -its radius
        second = add(sub(hs[i + 1], scale(hs[i], 2.0)), hs[i - 1])
        track.add(_exact(second.value + second.error_bound), pts[i])
    return track.result("theta4-ratio-conjecture", len(pts),
                        informational=True)


_THETA3_COEFFS = ((1.0, 0.0),) + tuple(
    (2.0, math.pi * k * k) for k in range(1, 11))


@dataclass(frozen=True)
class VerifyConfig:
    """Suite selection and grids for run_all.

    suites=None runs every suite in SUITE_NAMES; otherwise only the named
    ones run, still in registry order, and naming none is a DomainError.
    The inequalities, their r values and the truncation target are fixed;
    only the grids are settable.
    """

    suites: tuple[str, ...] | None = None
    monotone_grid: GridSpec = GridSpec(0.05, 20.0, 1000, "log")
    refined_grid: GridSpec = GridSpec(0.05, 10.0, 500, "log")
    product_grid: GridSpec = GridSpec(1.0 / 3.0, 3.0, 301, "log")
    odd_ratio_grid: GridSpec = GridSpec(1e-3, 10.0, 1250, "log")
    logconv_grid: GridSpec = GridSpec(0.1, 10.0, 200, "log")
    conjecture_grid: GridSpec = GridSpec(0.5, 5.0, 200, "linear")

    def __post_init__(self):
        if self.suites is not None:
            object.__setattr__(self, "suites", tuple(self.suites))
            if not self.suites:
                raise DomainError("suites=() selects nothing; None runs all")
            unknown = set(self.suites) - set(SUITE_NAMES)
            if unknown:
                raise DomainError(
                    f"unknown suites {sorted(unknown)!r}; "
                    f"valid names: {list(SUITE_NAMES)!r}")


# suite name -> runner, in the order run_all reports them
_SUITES = {
    "theta3-log-ratio-monotone":
        lambda c: check_monotone_log_ratio(THETA3, c.monotone_grid),
    "theta4-log-ratio-monotone":
        lambda c: check_monotone_log_ratio(THETA4, c.monotone_grid),
    "refined-log-convexity-concavity":
        lambda c: check_refined_inequalities(c.refined_grid),
    "theta3-product-minimum":
        lambda c: check_product_inequality(THETA3, PRODUCT_R, c.product_grid),
    "theta4-product-maximum":
        lambda c: check_product_inequality(THETA4, PRODUCT_R, c.product_grid),
    "odd-combination-minimum":
        lambda c: check_odd_combination(THETA3, PRODUCT_R, c.product_grid),
    "odd-combination-maximum":
        lambda c: check_odd_combination(THETA4, ODD_MAXIMUM_R,
                                        c.product_grid),
    "odd-log-ratio": lambda c: check_lemma_odd_ratio(c.odd_ratio_grid),
    "exp-sum-log-convexity":
        lambda c: check_logconvexity_general(_THETA3_COEFFS, c.logconv_grid),
    "theta4-ratio-conjecture":
        lambda c: check_theta4_ratio_conjecture(c.conjecture_grid),
}

SUITE_NAMES = tuple(_SUITES)


def run_all(config: VerifyConfig | None = None) -> list[CheckResult]:
    """Run the selected suites in registry order (deterministic)."""
    config = config if config is not None else VerifyConfig()
    return [runner(config) for name, runner in _SUITES.items()
            if config.suites is None or name in config.suites]


def all_passed(results) -> bool:
    """Aggregate verdict, ignoring informational suites."""
    return all(r.passed for r in results if not r.informational)
