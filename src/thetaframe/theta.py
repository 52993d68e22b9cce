"""Jacobi theta functions with certified error bounds.

Evaluates

    theta3(s)    = sum_k exp(-pi k^2 s)                 (k over all integers)
    theta4(s)    = sum_k (-1)^k exp(-pi k^2 s)
    theta_odd(s) = sum_k exp(-pi (2k+1)^2 s)            (sum over odd indices)
    Theta(z, is) = 1 + 2 sum_{k>=1} exp(-pi k^2 s) cos(2 pi k z)

together with first and second derivatives in s (term factors -pi k^2 and
pi^2 k^4; theta_odd uses (2k+1)^2 in place of k^2). Every result carries an
absolute error bound covering both series truncation and floating-point
rounding, so downstream inequality checks can demand margins that beat the
bound honestly.

Below s = SMALL_S_CUTOFF every family and every order is routed through a
modular relation of the form g(s) = c s^{-1/2} h(lam/s):

    theta3(s)    = s^{-1/2} theta3(1/s)                    c = 1,   lam = 1
    theta4(s)    = s^{-1/2} theta_odd(1/(4s))              c = 1,   lam = 1/4
    theta_odd(s) = (1/2) s^{-1/2} theta4(1/(4s))           c = 1/2, lam = 1/4
    Theta(z, is) = s^{-1/2} P_z(1/s),
                   P_z(u) = sum_k exp(-pi (k+z)^2 u)       c = 1,   lam = 1

Differentiating term by term, with y = pi i^2 lam/s for inner index i,

    d^m/ds^m [s^{-1/2} e^{-y}] = s^{-1/2-m} P_m(y) e^{-y},
    P_0 = 1,  P_1(y) = y - 1/2,  P_2(y) = y^2 - 3y + 3/4,

so each order costs one rapidly converging series at the large argument
u = lam/s, its terms weighted by P_m(y), instead of O(s^{-1/2}) terms of
the direct series. P_z is a sum over the shifted indices k + z, certified
like the other series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

from . import ball
from .errors import ConvergenceError, DomainError

S_MIN = 1e-6
S_MAX = 1e6
SMALL_S_CUTOFF = 0.25
TERM_CAP = 10 ** 6
DEFAULT_TOL = 1e-12

_EPS = math.ulp(1.0)
_TINY = 5e-324  # smallest positive subnormal, floor for underflowed tails


class DerivativeOrder(IntEnum):
    """Derivative order in s; anything outside {0, 1, 2} is rejected."""

    VALUE = 0
    FIRST = 1
    SECOND = 2


class EvalMethod(str, Enum):
    DIRECT = "direct-series"
    TRANSFORM = "modular-transform"
    PRODUCT = "triple-product"


# kind -> (first indices, step, weight, slack factor, sign, reflection) of
# a series over the index progressions first + n step. First index 0
# stands for the k = 0 term, counted once; None stands for the shifts
# (z, 1 - z) of P_z, whose rounded indices double the slack factor. sign
# is (-1)^i or cos(2 pi z i) when set. reflection is (c, lam, inner kind)
# of g(s) = c s^{-1/2} h(lam/s); P_z ("poisson"), the inner series of
# Theta(z, is), has none: it runs only directly and is not a family.
_ALTERNATING, _COSINE = 1, 2
_SERIES = {
    "theta3": ((0,), 1, 2.0, 2.0, None, (1.0, 1.0, "theta3")),
    "theta4": ((0,), 1, 2.0, 2.0, _ALTERNATING, (1.0, 0.25, "theta_odd")),
    "theta_odd": ((1,), 2, 2.0, 2.0, None, (0.5, 0.25, "theta4")),
    "theta_general": ((0,), 1, 2.0, 2.0, _COSINE, (1.0, 1.0, "poisson")),
    "poisson": (None, 1, 1.0, 4.0, None, None),
}
FAMILIES = tuple(kind for kind, row in _SERIES.items() if row[-1])


@dataclass(frozen=True)
class ThetaFamily:
    """Selects a theta variant.

    kind is one of FAMILIES. The general family needs the fixed first
    argument z, which must be finite and is stored reduced mod 1 into
    [0, 1); every other family takes no z. Anything else is a DomainError.
    """

    kind: str
    z: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise DomainError(f"unknown theta family {self.kind!r}")
        if self.kind != "theta_general":
            if self.z is not None:
                raise DomainError(f"{self.kind} takes no z, got {self.z!r}")
            return
        # inf and nan reduce to nan; a tiny negative z rounds up to 1.0 on
        # the first reduction, which the second maps to 0
        z = math.nan if self.z is None else float(self.z) % 1.0 % 1.0
        if math.isnan(z):
            raise DomainError(f"theta_general requires a finite z, got "
                              f"{self.z!r}")
        object.__setattr__(self, "z", z)


THETA3 = ThetaFamily("theta3")
THETA4 = ThetaFamily("theta4")
THETA_ODD = ThetaFamily("theta_odd")


def general_family(z: float) -> ThetaFamily:
    """Family for the two-variable series Theta(z, is); z is reduced mod 1."""
    return ThetaFamily("theta_general", z)


@dataclass(frozen=True)
class ThetaValue:
    """A computed value with an absolute error bound.

    The true mathematical value lies in [value - error_bound,
    value + error_bound]; terms_used counts series terms (or product
    factors) actually evaluated.
    """

    value: float
    error_bound: float
    terms_used: int
    method: EvalMethod


def _check_domain(s: float, tol: float) -> None:
    if not (S_MIN <= s <= S_MAX):
        raise DomainError(
            f"s={s!r} outside supported domain [{S_MIN}, {S_MAX}]")
    if not (0.0 < tol < 1.0):
        raise DomainError(f"tol={tol!r} outside (0, 1)")


# rows (c0, c1, c2) of Q(p): the weights 1, -p, p^2 of the direct series'
# s-derivatives, and P_0, P_1, P_2 before the transform scales them by u
_MONOMIALS = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0))
_P_ROWS = ((1.0, 0.0, 0.0), (-0.5, 1.0, 0.0), (0.75, -3.0, 1.0))


def _series(kind: str, s: float, row: tuple, target: float,
            z: float | None = None):
    """Series weight * sum_i sign_i Q(p_i) e^{-p_i s}, p_i = pi i^2, of a
    family (or of P_z), with Q(p) = c0 + c1 p + c2 p^2 from the row.

    Tail: R(p) = |c0| + |c1| p + |c2| p^2 bounds |Q| and R(p')/R(p) <=
    (p'/p)^m for p' >= p and the row's degree m, so along a progression
    the rest after each step is at most the next bound weight R e^{-p s}
    times 1/(1-q), q bounding every later ratio. The loop stops at the
    first step whose summed tail bound is within the absolute target; q is
    computed only once the next bound alone is.

    Rounding: each term is charged (slack factor * p_i s + 10 + 4k) ulp of
    weight R(p_i) e^{-p_i s}, 30 i more under a cosine, k counting the
    nonzero coefficients below the top one. Horner's rule is exact on a
    monomial row but for the power of p, so k = 0 is the plain series'
    charge; each further coefficient is rounded (-3u, u^2) and adds a
    Horner product and sum, each within half an ulp of a partial sum at
    most R(p_i).

    Returns (value, error_bound, terms_used).
    """
    first, step, weight, expo, sign, _ = _SERIES[kind]
    c0, c1, c2 = row
    m = 2 if c2 else 1 if c1 else 0
    extra = 10.0 + 4.0 * (2 - row.count(0.0))
    terms = []
    if first is None:
        first = (z, 1.0 - z)
    elif first == (0,):
        terms.append(c0)
        first = (step,)
    # weight is 1 or 2, so it scales the row exactly
    c0, c1, c2 = weight * c0, weight * c1, weight * c2
    a0, a1, a2 = abs(c0), abs(c1), abs(c2)
    alternating, cosine = sign == _ALTERNATING, sign == _COSINE
    two_pi_z = 2.0 * math.pi * z if cosine else 0.0
    ci = 30.0 if cosine else 0.0
    exp, pi = math.exp, math.pi
    slack = 0.0
    for n in range(TERM_CAP):
        tail = 0.0
        for a in first:
            i = a + n * step
            p = pi * (i * i)
            x = p * s
            e = exp(-x)
            t = ((c2 * p + c1) * p + c0) * e
            r = ((a2 * p + a1) * p + a0) * e
            sgn = (math.cos(two_pi_z * i) if cosine
                   else -1.0 if alternating and i & 1 else 1.0)
            terms.append(t * sgn)
            slack += r * (expo * x + extra + ci * i) * _EPS
            i1 = i + step
            p1 = pi * (i1 * i1)
            nxt = ((a2 * p1 + a1) * p1 + a0) * (exp(-p1 * s) or _TINY)
            q = 1.0 if nxt > target else ((i1 + step) / i1) ** (2 * m) * exp(
                -pi * (2 * step * i1 + step * step) * s)
            tail += nxt / (1.0 - q) if q < 1.0 else math.inf
        if tail <= target:
            break
    else:
        raise ConvergenceError(f"{kind} series at s={s} not certified "
                               f"within {TERM_CAP} terms")
    value = math.fsum(terms)
    bound = tail + slack + _EPS * abs(value)
    return value, bound, len(terms)


def _transform(kind: str, s: float, order: DerivativeOrder, tol: float,
               z: float | None = None):
    """Small-s evaluation through the modular relation of the family.

    Sums the inner series with the row of P_m scaled by u = lam/s, so that
    Q(p) = P_m(p u) (module docstring), to half of tol, and multiplies by
    c / (s^m sqrt(s)). The square root, s^m, their product, the division
    and the product with the inner value round at most five times by half
    an ulp, inside the 4 ulp slack; one more ulp of the value is added.
    """
    c, lam, inner_kind = _SERIES[kind][-1]
    u = lam / s
    r0, r1, r2 = _P_ROWS[order]
    coef = c / ((1.0, s, s * s)[order] * math.sqrt(s))
    v, b, n = _series(inner_kind, u, (r0, r1 * u, r2 * u * u),
                      0.5 * tol / abs(coef), z)
    value = coef * v
    bound = abs(coef) * b + 4.0 * _EPS * abs(value) + _EPS * abs(value)
    return ThetaValue(value, bound, n, EvalMethod.TRANSFORM)


def eval_theta(family: ThetaFamily, s: float,
               order: DerivativeOrder | int = DerivativeOrder.VALUE,
               tol: float = DEFAULT_TOL, *,
               force_direct: bool = False) -> ThetaValue:
    """Evaluate a theta family member or its s-derivative.

    Parameters
    ----------
    family : ThetaFamily
        Which series to evaluate; theta_general must carry z.
    s : float
        Argument, restricted to [1e-6, 1e6].
    order : int
        Derivative order in s, one of 0, 1, 2.
    tol : float
        Absolute truncation target in (0, 1); the reported error bound
        additionally accounts for rounding.
    force_direct : bool
        Skip the small-s modular transform (used by identity residuals,
        where the transform is the statement under test).

    Returns
    -------
    ThetaValue

    Raises
    ------
    DomainError
        s or tol outside the supported domain, bad order or family.
    ConvergenceError
        certification failed within the term cap.
    """
    try:  # DerivativeOrder(order) does this lookup, 0.4 us slower
        order = DerivativeOrder._value2member_map_[order]
    except (KeyError, TypeError) as exc:
        raise DomainError(
            f"derivative order must be 0, 1 or 2, got {order!r}") from exc
    if not isinstance(family, ThetaFamily):
        raise DomainError(f"expected ThetaFamily, got {family!r}")
    s = float(s)
    tol = float(tol)
    _check_domain(s, tol)
    if not force_direct and s < SMALL_S_CUTOFF:
        return _transform(family.kind, s, order, tol, family.z)
    v, b, n = _series(family.kind, s, _MONOMIALS[order], tol, family.z)
    return ThetaValue(v, b, n, EvalMethod.DIRECT)


def theta4_triple_product(s: float, tol: float = DEFAULT_TOL) -> ThetaValue:
    """theta4 via its infinite product.

    theta4(s) = prod_{k>=1} (1 - e^{-2 k pi s}) (1 - e^{-(2k-1) pi s})^2.
    Factors use expm1 to stay accurate near 1; the neglected factors are
    bounded through |log(1-x)| <= x/(1-x) summed geometrically. Below the
    normal range rounding is absolute, so each of the 3k rounded
    multiplications adds one subnormal ulp.
    """
    s = float(s)
    tol = float(tol)
    _check_domain(s, tol)
    q = math.exp(-math.pi * s)
    prod = 1.0
    k = 0
    while True:
        k += 1
        if k > TERM_CAP:
            raise ConvergenceError(
                f"product at s={s} not certified within {TERM_CAP} factors")
        a = -math.expm1(-2.0 * k * math.pi * s)
        b = -math.expm1(-(2.0 * k - 1.0) * math.pi * s)
        prod *= a * b * b
        qq = q ** (2 * k + 1)
        delta = 3.0 * qq / ((1.0 - q) * (1.0 - qq))
        if delta <= 0.25 * tol:
            break
    bound = prod * (delta + 15.0 * k * _EPS + _EPS) + 3 * k * _TINY
    return ThetaValue(prod, bound, k, EvalMethod.PRODUCT)


def log_deriv_ratio_bounds(family: ThetaFamily, s: float,
                           tol: float = DEFAULT_TOL, *,
                           force_direct: bool = False) -> tuple[float, float]:
    """g(s) = s f'(s) / f(s) for f in {theta3, theta4, theta_odd}, with
    its propagated error bound. DomainError where f underflows: theta_odd
    above s ~ 236.8, theta4 below s ~ 1.055e-3."""
    if family.kind == "theta_general":
        raise DomainError(
            "log_deriv_ratio_bounds needs theta3, theta4 or theta_odd")
    s = float(s)
    f = eval_theta(family, s, DerivativeOrder.VALUE, tol,
                   force_direct=force_direct)
    if not f.value - f.error_bound > 0.0:
        raise DomainError(f"{family.kind}({s!r}) = {f.value!r} +/- "
                          f"{f.error_bound!r} underflows, so s f'/f is "
                          "undefined")
    d = eval_theta(family, s, DerivativeOrder.FIRST, tol,
                   force_direct=force_direct)
    g = ball.div(ball.scale(d, s), f)
    return g.value, g.error_bound


def jacobi_identity_residual(s: float, tol: float = DEFAULT_TOL) -> float:
    """|theta3(1/s) - sqrt(s) theta3(s)|, both sides by direct series.

    The small-s transform is this very identity, so it is disabled here.
    """
    s = float(s)
    lhs = eval_theta(THETA3, 1.0 / s, DerivativeOrder.VALUE, tol,
                     force_direct=True).value
    rhs = math.sqrt(s) * eval_theta(THETA3, s, DerivativeOrder.VALUE, tol,
                                    force_direct=True).value
    return abs(lhs - rhs)


def fact2_residual(s: float, tol: float = DEFAULT_TOL) -> float:
    """|g3(s) + g3(1/s) + 1/2| with g3 = s theta3'/theta3, direct series.

    The differentiated reflection identity forces the two log-ratios to
    sum to -1/2 for every s > 0.
    """
    s = float(s)
    ga = log_deriv_ratio_bounds(THETA3, s, tol, force_direct=True)[0]
    gb = log_deriv_ratio_bounds(THETA3, 1.0 / s, tol, force_direct=True)[0]
    return abs(ga + gb + 0.5)


def theta_odd_poisson_residual(r: float, s: float,
                               tol: float = DEFAULT_TOL) -> float:
    """|theta_odd(rs) - theta4(1/(4rs)) / (2 sqrt(rs))|, direct series."""
    r = float(r)
    s = float(s)
    if not (r > 0.0 and s > 0.0):
        raise DomainError("r and s must be positive")
    rs = r * s
    lhs = eval_theta(THETA_ODD, rs, DerivativeOrder.VALUE, tol,
                     force_direct=True).value
    rhs = eval_theta(THETA4, 1.0 / (4.0 * rs), DerivativeOrder.VALUE, tol,
                     force_direct=True).value / (2.0 * math.sqrt(rs))
    return abs(lhs - rhs)
