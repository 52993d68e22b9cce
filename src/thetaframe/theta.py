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

With u = lam/s, its s-derivatives are

    g'  = -c [(1/2) s^{-3/2} h(u) + lam s^{-5/2} h'(u)]
    g'' =  c [(3/4) s^{-5/2} h(u) + 3 lam s^{-7/2} h'(u)
              + lam^2 s^{-9/2} h''(u)]

so each order costs a few rapidly converging series at the large argument
u instead of O(s^{-1/2}) terms of the direct series. P_z is a sum over the
shifted indices k + z, certified like the other series.
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


# kind -> (c, lam, inner kind) of g(s) = c s^{-1/2} h(lam/s); "poisson"
# is the inner P_z of Theta(z, is), evaluated only as a direct series
_REFLECTIONS = {
    "theta3": (1.0, 1.0, "theta3"),
    "theta4": (1.0, 0.25, "theta_odd"),
    "theta_odd": (0.5, 0.25, "theta4"),
    "theta_general": (1.0, 1.0, "poisson"),
}


@dataclass(frozen=True)
class ThetaFamily:
    """Selects a theta variant.

    kind is one of "theta3", "theta4", "theta_odd", "theta_general".
    The general family needs the fixed first argument z, which must be
    finite and is stored reduced mod 1 into [0, 1); every other family
    takes no z. Anything else is a DomainError.
    """

    kind: str
    z: float | None = None

    def __post_init__(self):
        if self.kind not in _REFLECTIONS:
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


# name -> family: the one-variable families are constants, and
# theta_general maps to the constructor taking z
FAMILIES = {"theta3": THETA3, "theta4": THETA4, "theta_odd": THETA_ODD,
            "theta_general": general_family}


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


_ORDERS = {int(m): m for m in DerivativeOrder}


def _coerce_order(order) -> DerivativeOrder:
    try:
        return _ORDERS[order]
    except (KeyError, TypeError) as exc:
        raise DomainError(
            f"derivative order must be 0, 1 or 2, got {order!r}") from exc


def _check_domain(s: float, tol: float) -> None:
    if not (S_MIN <= s <= S_MAX):
        raise DomainError(
            f"s={s!r} outside supported domain [{S_MIN}, {S_MAX}]")
    if not (0.0 < tol < 1.0):
        raise DomainError(f"tol={tol!r} outside (0, 1)")


# kind -> (first indices, step, weight, slack factor, sign) of the direct
# series weight * sum_i w_m(i) e^{-pi i^2 s} over the index progressions
# first + n step. First index 0 stands for the k = 0 term, counted once;
# None stands for the shifts (z, 1 - z) of P_z, whose rounded indices
# double the slack factor. sign is (-1)^i or cos(2 pi z i) when set.
_ALTERNATING, _COSINE = 1, 2
_SERIES = {
    "theta3": ((0,), 1, 2.0, 2.0, None),
    "theta4": ((0,), 1, 2.0, 2.0, _ALTERNATING),
    "theta_odd": ((1,), 2, 2.0, 2.0, None),
    "theta_general": ((0,), 1, 2.0, 2.0, _COSINE),
    "poisson": (None, 1, 1.0, 4.0, None),
}


def _series(kind: str, s: float, order: DerivativeOrder, target: float,
            z: float | None = None):
    """Direct series of a family (or of P_z), with a certified tail.

    Sums weight * w_m(i) e^{-pi i^2 s} over the family's index
    progressions, where w_m is 1, -pi i^2 or pi^2 i^4. Along each
    progression term ratios shrink, so after each step the rest is bounded
    by the next term times 1/(1-q), q bounding every later term ratio
    (exponent gaps grow, weight ratios shrink). The loop stops at the first
    step whose summed tail bound drops below the absolute target; q is
    computed only once the next term alone is within the target.

    Returns (value, error_bound, terms_used).
    """
    first, step, weight, expo, sign = _SERIES[kind]
    m = int(order)
    terms = []
    if first is None:
        first = (z, 1.0 - z)
    elif first == (0,):
        terms.append(1.0 if m == 0 else 0.0)
        first = (step,)
    alternating = sign == _ALTERNATING
    cosine = sign == _COSINE
    two_pi_z = 2.0 * math.pi * z if cosine else 0.0
    exp = math.exp
    pi = math.pi
    slack = 0.0
    n = -1
    while True:
        n += 1
        if n >= TERM_CAP:
            raise ConvergenceError(
                f"{kind} series at s={s} not certified within "
                f"{TERM_CAP} terms")
        tail = 0.0
        for a in first:
            i = a + n * step
            p = pi * (i * i)
            x = p * s
            e = exp(-x)
            w = (weight, -weight * p, weight * p * p)[m]
            t = w * e
            if cosine:
                terms.append(t * math.cos(two_pi_z * i))
                slack += abs(w) * e * (expo * x + 10.0 + 30.0 * i) * _EPS
            else:
                terms.append(-t if alternating and i & 1 else t)
                slack += abs(w) * e * (expo * x + 10.0) * _EPS
            i1 = i + step
            p1 = pi * (i1 * i1)
            nxt = weight * p1 ** m * (exp(-p1 * s) or _TINY)
            if nxt > target:
                tail = math.inf
                continue
            q = ((i1 + step) / i1) ** (2 * m) * exp(
                -pi * (2 * step * i1 + step * step) * s)
            if q >= 1.0:
                tail = math.inf
                continue
            tail += nxt / (1.0 - q)
        if tail <= target:
            break
    value = math.fsum(terms)
    bound = tail + slack + _EPS * abs(value)
    return value, bound, len(terms)


# a[m][j]: g^{(m)} = c sum_j a[m][j] lam^j s^{-1/2-m-j} h^{(j)}(lam/s)
_ORDER_WEIGHTS = ((1.0,), (-0.5, -1.0), (0.75, 3.0, 1.0))


def _transform(kind: str, s: float, order: DerivativeOrder, tol: float,
               z: float | None = None):
    """Small-s evaluation through the modular relation of the family.

    Sums the inner series h^{(j)} at u = lam/s with the coefficients of
    the differentiated relation (module docstring), splitting half of tol
    evenly over the inner truncations. Coefficient numerators are exact;
    a denominator s^{m+j} sqrt(s), the division and the product with the
    inner value round at most seven times by half an ulp, inside the
    4 ulp slack per part.
    """
    c, lam, inner_kind = _REFLECTIONS[kind]
    rs = math.sqrt(s)
    arg = lam / s
    weights = _ORDER_WEIGHTS[order]
    share = 0.5 / len(weights)
    sp = (1.0, s, s * s)[order]
    parts = []
    bound = 0.0
    terms = 0
    for j, a in enumerate(weights):
        coef = c * a * lam ** j / (sp * rs)
        sp *= s
        v, b, n = _series(inner_kind, arg, j, share * tol / abs(coef), z)
        parts.append(coef * v)
        bound += abs(coef) * b + 4.0 * _EPS * abs(coef * v)
        terms += n
    value = math.fsum(parts)
    bound += _EPS * abs(value)
    return ThetaValue(value, bound, terms, EvalMethod.TRANSFORM)


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
    order = _coerce_order(order)
    if not isinstance(family, ThetaFamily):
        raise DomainError(f"expected ThetaFamily, got {family!r}")
    s = float(s)
    tol = float(tol)
    _check_domain(s, tol)
    if not force_direct and s < SMALL_S_CUTOFF:
        return _transform(family.kind, s, order, tol, family.z)
    v, b, n = _series(family.kind, s, order, tol, family.z)
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
    if not isinstance(FAMILIES.get(family.kind), ThetaFamily):
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
