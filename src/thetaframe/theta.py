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

    theta3(s)    = s^{-1/2} theta3(1/s) = s^{-1/2} theta_even(1/(4s)),
                   theta_even(u) = sum_k exp(-4 pi k^2 u)  c = 1,   lam = 1/4
    theta4(s)    = s^{-1/2} theta_odd(1/(4s))              c = 1,   lam = 1/4
    theta_odd(s) = (1/2) s^{-1/2} theta4(1/(4s))           c = 1/2, lam = 1/4
    Theta(z, is) = s^{-1/2} P_z(1/s),
                   P_z(u) = sum_k exp(-pi (k+z)^2 u)       c = 1,   lam = 1

theta_even's series E at 1/(4s) is theta3's at 1/s term for term. With
the odd-index series O = theta_odd it gives all three families at one
argument (the q -> q^4 relations, DLMF ch. 20): E + O, E - O and O at s,
and c E, c O and (c/2)(E - O) at 1/(4s), as _thetas sums them for frame.

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
from enum import Enum, IntEnum
from typing import NamedTuple

from . import ball
from .errors import ConvergenceError, DomainError, real

S_MIN = 1e-6
S_MAX = 1e6
SMALL_S_CUTOFF = 0.25
TERM_CAP = 10 ** 6
DEFAULT_TOL = 1e-12  # eval_theta's and frame_bounds' truncation target
# smallest tol of theta4_triple_product, the one public function with a
# target of its own: every series runs at DEFAULT_TOL, or at 1e-16 for
# frame's slopes
TOL_FLOOR = 1e-280

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


# for eval_theta: an Enum class attribute read costs about 0.12 us, and
# DerivativeOrder(order) 0.4 us more than a _BY_ORDER index
_BY_ORDER = tuple(DerivativeOrder)
_DIRECT, _TRANSFORM = EvalMethod.DIRECT, EvalMethod.TRANSFORM


# kind -> (first indices, step, weight, slack factor, sign, reflection) of
# a series over the index progressions first + n step. First index 0
# stands for the k = 0 term, counted once; None stands for the shifts
# (z, 1 - z) of P_z, whose rounded indices double the slack factor. sign
# is (-1)^i or cos(2 pi z i) when set. reflection is (c, lam, inner kind)
# of g(s) = c s^{-1/2} h(lam/s); the inner series of theta3's and of
# Theta(z, is)'s, theta_even and P_z ("poisson"), have none: they run only
# directly and are not families.
_ALTERNATING, _COSINE = 1, 2
_SERIES = {
    "theta3": ((0,), 1, 2.0, 2.0, None, (1.0, 0.25, "theta_even")),
    "theta4": ((0,), 1, 2.0, 2.0, _ALTERNATING, (1.0, 0.25, "theta_odd")),
    "theta_odd": ((1,), 2, 2.0, 2.0, None, (0.5, 0.25, "theta4")),
    "theta_general": ((0,), 1, 2.0, 2.0, _COSINE, (1.0, 1.0, "poisson")),
    "theta_even": ((0,), 2, 2.0, 2.0, None, None),
    "poisson": (None, 1, 1.0, 4.0, None, None),
}
FAMILIES = tuple(kind for kind, row in _SERIES.items() if row[-1])


class ThetaFamily(NamedTuple("ThetaFamily",
                              [("kind", str), ("z", float | None)])):
    """Selects a theta variant.

    kind is one of FAMILIES. The general family needs the fixed first
    argument z, a finite real number, not a bool, kept mod 1 in [0, 1);
    every other family takes no z. Anything else is a DomainError.
    """

    __slots__ = ()

    def __new__(cls, kind: str, z: float | None = None):
        if kind not in FAMILIES:
            raise DomainError(f"unknown theta family {kind!r}")
        if kind != "theta_general":
            if z is not None:
                raise DomainError(f"{kind} takes no z, got {z!r}")
        else:
            # a tiny negative z rounds up to 1.0 on the first reduction,
            # which the second maps to 0
            z = real(z, "z") % 1.0 % 1.0
        return super().__new__(cls, kind, z)

    # so _replace, which calls _make, validates too
    _make = classmethod(lambda cls, fields: cls(*fields))


THETA3 = ThetaFamily("theta3")
THETA4 = ThetaFamily("theta4")
THETA_ODD = ThetaFamily("theta_odd")


def general_family(z: float) -> ThetaFamily:
    """Family for the two-variable series Theta(z, is); z is reduced mod 1."""
    return ThetaFamily("theta_general", z)


class ThetaValue(NamedTuple):
    """A computed value with an absolute error bound.

    The true mathematical value lies in [value - error_bound,
    value + error_bound]; terms_used counts series terms (or product
    factors) actually evaluated.
    """

    value: float
    error_bound: float
    terms_used: int
    method: EvalMethod


def _check_domain(s: float) -> float:
    if not S_MIN <= (s := real(s, "s")) <= S_MAX:
        raise DomainError(
            f"s={s!r} outside supported domain [{S_MIN}, {S_MAX}]")
    return s


# rows (c0, c1, c2) of Q(p): the weights 1, -p, p^2 of the direct series'
# s-derivatives, and P_0, P_1, P_2 before the transform scales them by u
_MONOMIALS = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0))
_P_ROWS = ((1.0, 0.0, 0.0), (-0.5, 1.0, 0.0), (0.75, -3.0, 1.0))
# _PLANS[kind][reflected][order]: _series's constants for a kind and a row
# of Q, the first indices after the head (None for P_z's shifts), step,
# slack factor, alternating, cosine, the head (the k = 0 term, c0 over the
# series weight, or None), the row times the weight (1 or 2, so exactly),
# their magnitudes, 2m for the row's degree m, the charge 10 + 4k and
# 4 step; reflected, _series scales c_j by u^j > 0, which keeps m and k
_PLANS = {kind: [[((step,) if first == (0,) else first, step, expo,
                   sign == _ALTERNATING, sign == _COSINE,
                   row[0] if first == (0,) else None,
                   *(weight * c for c in row), *(weight * abs(c) for c in row),
                   4 if row[2] else 2 if row[1] else 0,
                   10.0 + 4.0 * (2 - row.count(0.0)), 4 * step)
                  for row in rows] for rows in (_MONOMIALS, _P_ROWS)]
          for kind, (first, step, weight, expo, sign, _) in _SERIES.items()}


def _series(kind: str, s: float, order: int, target: float,
            z: float | None = None, reflected: bool = False):
    """Series weight * sum_i sign_i Q(p_i) e^{-p_i s}, p_i = pi i^2, of a
    family (or of P_z), with Q(p) = c0 + c1 p + c2 p^2 the order's row of
    _MONOMIALS, or of _P_ROWS at p s when reflected.

    Tail: R(p) = |c0| + |c1| p + |c2| p^2 bounds |Q| and R(p')/R(p) <=
    (p'/p)^m for p' >= p and the row's degree m, so along a progression
    the rest after each step is at most the next bound weight R e^{-p s}
    times 1/(1-q), q bounding every later ratio. The loop stops at the
    first step whose summed tail bound is within the absolute target; q is
    computed only once the next bound alone is. For integer indices that
    next bound's e^{-p s} is the next term's, so it is computed once.

    Rounding: each term is charged (slack factor * p_i s + 10 + 4k) ulp of
    weight R(p_i) e^{-p_i s}, 30 i more under a cosine, k counting the
    nonzero coefficients below the top one. Horner's rule is exact on a
    monomial row but for the power of p, so k = 0 is the plain series'
    charge; each further coefficient is rounded (-3u, u^2) and adds a
    Horner product and sum, each within half an ulp of a partial sum at
    most R(p_i).

    Returns (terms, tail + slack); _ball sums them.
    """
    (first, step, expo, alternating, cosine, head, c0, c1, c2, a0, a1, a2,
     two_m, extra, four_step) = _PLANS[kind][reflected][order]
    if reflected:  # Q(p) = P_m(p s)
        c1, a1 = c1 * s, a1 * s
        c2, a2 = c2 * s * s, a2 * s * s
    terms = [] if head is None else [head]
    shifted = first is None
    if shifted:
        first = (z, 1.0 - z)
    exp, pi, inf = math.exp, math.pi, math.inf
    if cosine:
        cos, two_pi_z = math.cos, 2.0 * pi * z
    slack = 0.0
    for n in range(TERM_CAP):
        tail = 0.0
        for a in first:
            if shifted or not n:  # else the last tail probe's; not for P_z,
                i = a + n * step  # as z + (n + 1) and (z + n) + 1 can differ
                p = pi * (i * i)
                x, R = p * s, (a2 * p + a1) * p + a0
                e = exp(-x)
            t = ((c2 * p + c1) * p + c0) * e
            w = expo * x + extra
            if cosine:
                terms.append(t * cos(two_pi_z * i))
                slack += R * e * (w + 30.0 * i) * _EPS
            else:
                terms.append(-t if alternating and i & 1 else t)
                slack += R * e * w * _EPS
            e0 = e  # the tail probe at the next index is the next term
            i += step
            p = pi * (i * i)
            x, R = p * s, (a2 * p + a1) * p + a0
            e = exp(-x)
            nxt = R * (e or _TINY)
            q = 1.0 if nxt > target else ((i + step) / i) ** two_m * (
                e0 if not shifted and i == four_step  # then (i - step)^2
                else exp(-pi * (2 * step * i + step * step) * s))
            tail += nxt / (1.0 - q) if q < 1.0 else inf
        if tail <= target:
            return terms, tail + slack
    raise ConvergenceError(f"{kind} series at s={s} not certified "
                           f"within {TERM_CAP} terms")


def _ball(terms, rest, c=None):
    """(value, radius) of the sum of terms, rest being their tail + slack,
    or of c times it for a transform coefficient c (None when direct): the
    square root, s^m, their product, the division and the product with
    the sum round at most five times by half an ulp, inside 4 ulps; one
    more ulp of the value is added. The pair is a ball, as ball.py's
    rules take it."""
    value = math.fsum(terms)
    bound = rest + _EPS * abs(value)
    if c is None:
        return value, bound
    value *= c
    return value, abs(c) * bound + 4.0 * _EPS * abs(value) + _EPS * abs(value)


def _thetas(s: float, order: int, tol: float, odd: int):
    """theta3, theta4 and, if odd, theta_odd at s and one order as balls,
    each one fsum over the signed terms of the even- and odd-index series
    E and O, both to half of tol over the coefficient: E + O, E - O and O
    at s from the cutoff up; below it c E, c O and (c/2)(E - O) at 1/(4s)
    with c = s^{-1/2-m}, so theta3 and theta4 are eval_theta's there."""
    if s >= SMALL_S_CUTOFF:
        c, x, t = None, s, 0.5 * tol
    else:
        c = 1.0 / ((1.0, s, s * s)[order] * math.sqrt(s))
        x, t = 0.25 / s, 0.5 * tol / c
    reflected = c is not None
    ev, e_rest = _series("theta_even", x, order, t, None, reflected)
    od, o_rest = _series("theta_odd", x, order, t, None, reflected)
    rest = e_rest + o_rest
    if c is None:
        out = [_ball(ev + od, rest), _ball(ev + [-v for v in od], rest)]
        if odd:
            out.append(_ball(od, o_rest))
    else:
        out = [_ball(ev, e_rest, c), _ball(od, o_rest, c)]
        if odd:
            out.append(_ball(ev + [-v for v in od], rest, 0.5 * c))
    return out


def eval_theta(family: ThetaFamily, s: float,
               order: DerivativeOrder | int = DerivativeOrder.VALUE
               ) -> ThetaValue:
    """Evaluate a theta family member or its s-derivative to the absolute
    truncation target DEFAULT_TOL = 1e-12; the bound also covers rounding.

    Parameters
    ----------
    family : ThetaFamily
        Which series to evaluate; theta_general must carry z.
    s : float
        Argument, a real number, not a bool, in [1e-6, 1e6].
    order : int
        Derivative order in s, one of 0, 1, 2; an integer, not a bool.

    Returns
    -------
    ThetaValue

    Raises
    ------
    DomainError
        s outside the supported domain, bad order or family.
    ConvergenceError
        certification failed within the term cap.
    """
    try:  # as an index 2.0 is refused, but True and -1 are not
        order = _BY_ORDER[order if order is not True and order is not False
                          and order >= 0 else 3]
    except (IndexError, TypeError) as exc:
        raise DomainError(
            f"derivative order must be 0, 1 or 2, got {order!r}") from exc
    if not isinstance(family, ThetaFamily):
        raise DomainError(f"expected ThetaFamily, got {family!r}")
    if not (s.__class__ is float and S_MIN <= s <= S_MAX):
        s = _check_domain(s)  # converts, or raises
    kind, z = family
    if s >= SMALL_S_CUTOFF:
        coef, method = None, _DIRECT
        terms, rest = _series(kind, s, order, DEFAULT_TOL, z)
    else:
        # the inner series of the family's reflection at u = lam/s, Q(p)
        # being P_m(p u), to half of the target, times c / (s^m sqrt(s))
        c, lam, inner = _SERIES[kind][-1]
        coef = c / ((1.0, s, s * s)[order] * math.sqrt(s))
        method = _TRANSFORM
        terms, rest = _series(inner, lam / s, order,
                              0.5 * DEFAULT_TOL / abs(coef), z, True)
    value, bound = _ball(terms, rest, coef)
    # as ThetaValue._make builds it, skipping the Python-level __new__
    return tuple.__new__(ThetaValue, (value, bound, len(terms), method))


def theta4_triple_product(s: float, tol: float = DEFAULT_TOL) -> ThetaValue:
    """theta4 via its infinite product.

    theta4(s) = prod_{k>=1} (1 - e^{-2 k pi s}) (1 - e^{-(2k-1) pi s})^2.
    Factors use expm1 to stay accurate near 1; the neglected factors are
    bounded through |log(1-x)| <= x/(1-x) summed geometrically. Below the
    normal range rounding is absolute, so each of the 3k rounded
    multiplications adds one subnormal ulp. tol, the absolute truncation
    target, is a real number, not a bool, in [TOL_FLOOR, 1) = [1e-280, 1).
    """
    s = _check_domain(s)
    if not (TOL_FLOOR <= (tol := real(tol, "tol")) < 1.0):
        raise DomainError(f"tol={tol!r} outside [{TOL_FLOOR}, 1)")
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


def log_deriv_ratio_bounds(family: ThetaFamily,
                           s: float) -> tuple[float, float]:
    """g(s) = s f'(s) / f(s) for f in {theta3, theta4, theta_odd} at
    DEFAULT_TOL, with its propagated error bound. DomainError where f
    underflows: theta_odd above s ~ 236.8, theta4 below s ~ 1.055e-3."""
    if not isinstance(family, ThetaFamily) or family.kind == "theta_general":
        raise DomainError(
            "log_deriv_ratio_bounds needs theta3, theta4 or theta_odd")
    f = eval_theta(family, s := real(s, "s"))
    if not f.value - f.error_bound > 0.0:
        raise DomainError(f"{family.kind}({s!r}) = {f.value!r} +/- "
                          f"{f.error_bound!r} underflows, so s f'/f is "
                          "undefined")
    d = eval_theta(family, s, DerivativeOrder.FIRST)
    return ball.div(ball.scale((d.value, d.error_bound), s),
                    (f.value, f.error_bound))
