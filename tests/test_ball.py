"""Ball propagation rules checked against exact rational arithmetic.

For + - * and / (divisor ball away from 0) the image of the operand box
takes its extremes at the box corners, so a result ball that contains the
exact value at every corner contains the whole image. A ball is a plain
(value, radius) pair.
"""

import math
import random
from fractions import Fraction

import pytest

from thetaframe import THETA3, eval_theta, frame_bounds, lattice_params
from thetaframe.ball import add, div, fsum, mul, neg, scale, sub

DRAWS = 1000


def _midpoint(rng):
    pick = rng.random()
    if pick < 0.1:
        return 0.0
    if pick < 0.25:  # subnormal
        return rng.choice((-1, 1)) * rng.randint(1, 2 ** 40) * 5e-324
    if pick < 0.4:  # tiny, just above the subnormal range
        exponent = rng.randint(-1020, -900)
    elif pick < 0.55:  # huge, but products stay finite
        exponent = rng.randint(400, 500)
    else:
        exponent = rng.randint(-40, 40)
    return rng.uniform(-1.0, 1.0) * 2.0 ** exponent


def _ball(rng):
    m = _midpoint(rng)
    pick = rng.random()
    if pick < 0.2:
        r = 0.0
    elif pick < 0.3:
        r = rng.randint(1, 2 ** 20) * 5e-324
    elif pick < 0.4:  # radius far beyond the midpoint
        r = abs(m) * 2.0 ** rng.randint(1, 40) + 5e-324
    else:
        r = abs(m) * 2.0 ** rng.randint(-60, 0)
    return m, r


def _corners(b):
    m, r = map(Fraction, b)
    return (m - r, m + r)


def _contains(result, exact_values):
    if math.isinf(result[1]):
        return True
    m, r = map(Fraction, result)
    return all(abs(e - m) <= r for e in exact_values)


@pytest.mark.parametrize("rule,op", [(add, lambda a, b: a + b),
                                     (sub, lambda a, b: a - b),
                                     (mul, lambda a, b: a * b)])
def test_binary_rules_contain_corners(rule, op):
    rng = random.Random(f"ball-{rule.__name__}")
    for _ in range(DRAWS):
        x, y = _ball(rng), _ball(rng)
        got = rule(x, y)
        exact = [op(a, b) for a in _corners(x) for b in _corners(y)]
        assert _contains(got, exact), (x, y)


def test_div_contains_corners():
    rng = random.Random("ball-div")
    for _ in range(DRAWS):
        x, y = _ball(rng), _ball(rng)
        if y[0] == 0.0:
            continue
        # keep the divisor ball away from 0
        y = (y[0], min(y[1], abs(y[0]) / 2.0))
        exact = [a / b for a in _corners(x) for b in _corners(y)]
        if max(map(abs, exact)) > 2 ** 1000:
            continue  # the quotient overflows float64
        got = div(x, y)
        assert math.isfinite(got[1])
        assert _contains(got, exact), (x, y)


def test_div_by_ball_containing_zero_is_unbounded():
    assert div((1.0, 0.0), (1e-3, 1e-3))[1] == math.inf
    with pytest.raises(ZeroDivisionError):
        div((1.0, 0.0), (0.0, 0.0))


def test_scale_and_neg_contain_corners():
    rng = random.Random("ball-scale")
    for _ in range(DRAWS):
        x = _ball(rng)
        c = _midpoint(rng)
        for got, exact in ((scale(x, c), [Fraction(c) * a
                                          for a in _corners(x)]),
                           (neg(x), [-a for a in _corners(x)])):
            assert _contains(got, exact), (x, c)


def test_fsum_contains_corners():
    rng = random.Random("ball-fsum")
    for _ in range(DRAWS // 3):
        balls = [_ball(rng) for _ in range(rng.randint(1, 6))]
        got = fsum(balls)
        # a sum takes its extremes with every operand at the same end
        exact = [sum(c[k] for c in map(_corners, balls)) for k in (0, 1)]
        assert _contains(got, exact), balls


def test_theta_values_are_not_operands():
    """A ThetaValue or a FrameBounds is a record, not a ball: every rule
    rejects it with ValueError, in each operand place, so a wrong operand
    is never read silently, though a record is a tuple. (tv.value,
    tv.error_bound) is the operand."""
    t = eval_theta(THETA3, 1.0)
    pair = (t.value, t.error_bound)
    fb = frame_bounds(lattice_params(2, 0.7))
    calls = [(rule, args) for rule in (add, sub, mul, div)
             for args in ((t, pair), (pair, t))]
    calls += [(neg, (t,)), (scale, (t, 2.0)), (fsum, ([t, pair],)),
              (fsum, ([pair, t],))]
    calls += [(add, (fb, pair)), (mul, (pair, fb)), (neg, (fb,)),
              (fsum, ([fb, pair],)), (fsum, ([pair, fb],))]
    for rule, args in calls:
        with pytest.raises(ValueError):
            rule(*args)
    p = mul(pair, pair)
    assert p[0] == t.value * t.value
    assert p[1] >= 2.0 * t.value * t.error_bound



# (function, mpmath name, argument range): the libm calls whose errors the
# theta kernel, _ball and the triple product charge as one ulp each
LIBM = [(math.exp, "exp", -745.0, 0.0), (math.expm1, "expm1", -50.0, 0.0),
        (math.cos, "cos", 0.0, 2e4)]


def _worst_ulps(fn, name, lo, hi, count):
    """Largest error of fn over both ends and count seeded uniform
    arguments in [lo, hi], in ulps of the result, against mpmath at 120
    bits."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(f"{name}:{count}")
    worst = 0.0
    with mp.workprec(120):
        exact_fn = getattr(mp, name)
        for x in [lo, hi] + [rng.uniform(lo, hi) for _ in range(count)]:
            exact = exact_fn(mp.mpf(x))
            worst = max(worst, float(abs(mp.mpf(fn(x)) - exact))
                        / math.ulp(float(exact)))
    return worst


@pytest.mark.parametrize("fn,name,lo,hi", LIBM, ids=[e[1] for e in LIBM])
def test_libm_within_one_ulp(fn, name, lo, hi):
    assert _worst_ulps(fn, name, lo, hi, 5000) <= 1.0


@pytest.mark.slow
@pytest.mark.parametrize("fn,name,lo,hi", LIBM, ids=[e[1] for e in LIBM])
def test_libm_within_one_ulp_deep(fn, name, lo, hi):
    assert _worst_ulps(fn, name, lo, hi, 100_000) <= 1.0
