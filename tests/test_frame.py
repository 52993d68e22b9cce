"""Closed-form frame bound tests against frozen references."""

import math
import random

import pytest

import reference_values as ref
from thetaframe import (THETA3, THETA4, THETA_ODD, DomainError,
                        FrameBounds, GridSpec, LatticeParams, eval_theta,
                        find_optimal_beta, frame_bounds, frame_bounds_even,
                        frame_bounds_odd, frame_bounds_via_F, grid_extrema_F,
                        janssen_F, lattice_params, sweep_beta)
from thetaframe.ball import mul, scale, sub
from thetaframe.frame import _bounds

ULP = math.ulp(1.0)


def close(got, expected, err):
    return abs(got - expected) <= err + 4 * math.ulp(abs(expected))


class TestFrozenBounds:
    def test_even_square(self):
        fb = frame_bounds_even(2, 2.0 ** -0.5)
        assert close(fb.lower, ref.A_2_SQRT2, fb.error_bound)
        assert close(fb.upper, ref.B_2_SQRT2, fb.error_bound)
        assert fb.valid
        assert abs(fb.ratio - ref.SQRT2) < 1e-10

    def test_even_rect(self):
        fb = frame_bounds_even(2, 1.0)
        assert close(fb.lower, ref.A_2_1, fb.error_bound)
        assert close(fb.upper, ref.B_2_1, fb.error_bound)

    def test_odd_square(self):
        fb = frame_bounds_odd(3, 3.0 ** -0.5)
        assert close(fb.lower, ref.A_3_SQRT3, fb.error_bound)
        assert close(fb.upper, ref.B_3_SQRT3, fb.error_bound)

    def test_even_n4(self):
        fb = frame_bounds_even(4, 0.5)
        assert close(fb.lower, ref.A_4_HALF, fb.error_bound)
        assert close(fb.upper, ref.B_4_HALF, fb.error_bound)

    def test_critical_density_collapses(self):
        # n=1 at beta=1: lower bound is analytically zero, and the
        # computed value must be indistinguishable from zero
        fb = frame_bounds_odd(1, 1.0)
        assert abs(fb.lower) <= fb.error_bound
        assert not fb.valid
        assert fb.ratio == math.inf
        assert close(fb.upper, ref.B_1_1, fb.error_bound)

    def test_critical_density_ball_holds_exact_zero(self):
        # A is exactly 0 at n = 1 for every beta, so A's own ball must
        # contain 0 across the admissible range, beta^2 in [2e-6, 5e5].
        # |A| / r_A reaches 0.193 here, at beta = 9.98: cutting A's radius
        # about 5x fails this test
        lo, hi = 0.5 * math.log(2e-6) + 1e-12, 0.5 * math.log(5e5) - 1e-12
        for k in range(2000):
            beta = math.exp(lo + (hi - lo) * k / 1999)
            LatticeParams(1, beta)  # admissible
            (a, r_a), _ = _bounds(1, beta)
            assert abs(a) <= r_a, beta

    def test_upper_coincidence(self):
        # B(1,1) equals A(2, 1/sqrt 2): same theta product after reparam
        fb1 = frame_bounds_odd(1, 1.0)
        fb2 = frame_bounds_even(2, 2.0 ** -0.5)
        assert abs(fb1.upper - fb2.lower) <= \
            fb1.error_bound + fb2.error_bound


class TestStructure:
    @pytest.mark.parametrize("n,beta", [(1, 0.8), (2, 0.6), (2, 1.0),
                                        (3, 0.4), (4, 0.5), (5, 0.3)])
    def test_ordering_and_validity(self, n, beta):
        fb = frame_bounds(lattice_params(n, beta))
        assert isinstance(fb, FrameBounds)
        assert fb.lower < fb.upper
        assert fb.error_bound > 0.0
        assert fb.valid == (fb.lower > fb.error_bound)
        if fb.lower > 0:
            assert fb.ratio == pytest.approx(fb.upper / fb.lower)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("beta", [0.4, 0.9])
    def test_reparam_symmetry(self, n, beta):
        # swapping beta -> 1/(n beta) swaps the two theta arguments
        a = frame_bounds(lattice_params(n, beta))
        b = frame_bounds(lattice_params(n, 1.0 / (n * beta)))
        assert abs(a.lower - b.lower) <= a.error_bound + b.error_bound
        assert abs(a.upper - b.upper) <= a.error_bound + b.error_bound

    def test_reparam_negates_slopes(self):
        # swapping a and b negates (beta/2) dA/dbeta and (beta/2) dB/dbeta,
        # so 1/sqrt(n) is a critical point of both bounds for every n:
        # find_optimal_beta builds its bracket outward from there. Each
        # slope ball and its mirror's must overlap once negated
        rng = random.Random(35)
        for _ in range(6000):
            n = rng.randint(2, 8)
            lo = max(math.sqrt(2e-6) / n, math.sqrt(0.5e-6)) * (1 + 1e-12)
            hi = min(math.sqrt(2e6) / n, math.sqrt(0.5e6)) * (1 - 1e-12)
            beta = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            for (s, r), (t, q) in zip(_bounds(n, beta, True),
                                      _bounds(n, 1.0 / (n * beta), True)):
                assert abs(s + t) <= r + q, (n, beta)

    def test_square_lattice_ratio_decreases_with_n(self):
        ratios = [frame_bounds(lattice_params(n, n ** -0.5)).ratio
                  for n in (2, 3, 4)]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_dispatch_matches_direct_calls(self):
        via_dispatch = frame_bounds(lattice_params(2, 0.7))
        direct = frame_bounds_even(2, 0.7)
        assert via_dispatch == direct
        via_dispatch = frame_bounds(lattice_params(3, 0.7))
        direct = frame_bounds_odd(3, 0.7)
        assert via_dispatch == direct


def test_containment_against_reference():
    """lower/upper +- error_bound contain the closed forms at 50 digits.

    Seeded n in 1..8 with beta log-uniform over the span where both theta
    arguments lie in [1e-6, 1e6]. The reference uses the arguments a, b
    as the library rounds them, since the bound certifies the evaluation
    at those arguments.
    """
    mp = pytest.importorskip("mpmath")
    rng = random.Random(20170301)
    for _ in range(100):
        n = rng.randint(1, 8)
        lo = max(math.sqrt(2e-6) / n, math.sqrt(0.5e-6)) * (1 + 1e-12)
        hi = min(math.sqrt(2e6) / n, math.sqrt(0.5e6)) * (1 - 1e-12)
        beta = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        fb = frame_bounds(lattice_params(n, beta))
        a = 0.5 * (n * beta) * (n * beta)
        b = 0.5 / (beta * beta)
        with mp.workdps(50):
            def theta(kind):
                return (ref.theta_reference(kind, a, 0)
                        * ref.theta_reference(kind, b, 0))
            odd = 2 * theta("theta_odd") if n % 2 else 0
            lower, upper = theta("theta4") - odd, theta("theta3") - odd
            for got, true in ((fb.lower, n * lower), (fb.upper, n * upper)):
                assert abs(mp.mpf(got) - true) <= mp.mpf(fb.error_bound), \
                    (n, beta, fb, true)


def test_slope_containment_against_reference():
    """The slope balls contain (beta/2) dA/dbeta and (beta/2) dB/dbeta at
    50 digits, from the slope pair a f'(a) f(b) - b f(a) f'(b) at the
    rounded arguments; beta within a decade of 1/sqrt(n), both sides."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(20170302)
    for _ in range(60):
        n = rng.randint(2, 8)
        beta = n ** -0.5 * 10.0 ** rng.uniform(-1.0, 1.0)
        slopes = _bounds(n, beta, True)
        a = 0.5 * (n * beta) * (n * beta)
        b = 0.5 / (beta * beta)
        with mp.workdps(50):
            def pair(kind):
                f = ref.theta_reference
                return (a * f(kind, a, 1) * f(kind, b, 0)
                        - b * f(kind, a, 0) * f(kind, b, 1))
            odd = 2 * pair("theta_odd") if n % 2 else 0
            truth = (n * (pair("theta4") - odd), n * (pair("theta3") - odd))
            for (got, radius), true in zip(slopes, truth):
                assert abs(mp.mpf(got) - true) <= mp.mpf(radius), \
                    (n, beta, got, true)


def _composed(n, beta, slopes):
    """(A, B) composed from one eval_theta value per family, order and
    argument with ball.py's rules: the radii that frame's bounds and
    slopes must not exceed."""
    a = 0.5 * (n * beta) * (n * beta)
    b = 0.5 / (beta * beta)

    def ev(family, s, order):
        tv = eval_theta(family, s, order)
        return tv.value, tv.error_bound

    def pair(family):
        fa, fb = ev(family, a, 0), ev(family, b, 0)
        if not slopes:
            return mul(fa, fb)
        return sub(mul(scale(ev(family, a, 1), a), fb),
                   mul(fa, scale(ev(family, b, 1), b)))

    lo, hi = pair(THETA4), pair(THETA3)
    if n % 2:
        odd = scale(pair(THETA_ODD), 2.0)
        lo, hi = sub(lo, odd), sub(hi, odd)
    return scale(lo, n), scale(hi, n)


def _check_composition(betas_per_n):
    """frame_bounds and the slopes of _bounds contain the 50-digit value
    composed from theta_reference, and no radius is wider than the
    per-family composition's by more than a factor of 1 + 1e-9: n = 1-8
    at log-spaced beta within 10^1.2 of 1/sqrt(n), which puts a or b on
    either side of the cutoff."""
    mp = pytest.importorskip("mpmath")
    kinds = ("theta4", "theta3", "theta_odd")
    for n in range(1, 9):
        for j in range(betas_per_n):
            beta = n ** -0.5 * 10.0 ** (-1.2 + 2.4 * j / (betas_per_n - 1))
            a = 0.5 * (n * beta) * (n * beta)
            b = 0.5 / (beta * beta)
            with mp.workdps(50):
                f = {(k, x, m): ref.theta_reference(k, x, m)
                     for k in kinds[:2 + n % 2] for x in (a, b)
                     for m in (0, 1)}

                def truth(slopes):
                    pairs = [a * f[k, a, 1] * f[k, b, 0]
                             - b * f[k, a, 0] * f[k, b, 1] if slopes
                             else f[k, a, 0] * f[k, b, 0]
                             for k in kinds[:2 + n % 2]]
                    odd = 2 * pairs[2] if n % 2 else 0
                    return n * (pairs[0] - odd), n * (pairs[1] - odd)

                exact, exact_slopes = truth(False), truth(True)
            fb = frame_bounds(lattice_params(n, beta))
            lo, hi = _composed(n, beta, False)
            assert fb.error_bound <= (1 + 1e-9) * max(lo[1], hi[1]), \
                (n, beta)
            for got, true in zip((fb.lower, fb.upper), exact):
                assert abs(mp.mpf(got) - true) <= mp.mpf(fb.error_bound), \
                    (n, beta)
            for (got, radius), comp, true in zip(
                    _bounds(n, beta, True), _composed(n, beta, True),
                    exact_slopes):
                assert radius <= (1 + 1e-9) * comp[1], (n, beta)
                assert abs(mp.mpf(got) - true) <= mp.mpf(radius), (n, beta)


def test_bounds_and_slopes_within_composition():
    _check_composition(24)


@pytest.mark.slow
def test_bounds_and_slopes_within_composition_dense():
    _check_composition(400)


def test_balls_contain_the_bounds_at_the_exact_beta():
    """_bounds' balls of A and B and of their slopes contain the 50-digit
    values at a = n^2 beta^2/2 and b = 1/(2 beta^2) taken exactly from the
    float beta, not at the rounded a and b that frame evaluates. 6 seeded
    beta per n = 1-8 put a or b in [1.06e-3, 1/4], where |s theta'/theta|
    is largest (about pi/(4s)), so rounding the argument moves theta most.
    """
    mp = pytest.importorskip("mpmath")
    rng = random.Random(20160301)
    kinds = ("theta4", "theta3", "theta_odd")
    for n in range(1, 9):
        for j in range(6):
            x = math.exp(rng.uniform(math.log(1.06e-3), math.log(0.25)))
            beta = math.sqrt(2.0 * x) / n if j % 2 else (2.0 * x) ** -0.5
            with mp.workdps(50):
                a = (n * mp.mpf(beta)) ** 2 / 2
                b = 1 / (2 * mp.mpf(beta) ** 2)
                f = {(k, s, m): ref.theta_reference(k, s, m)
                     for k in kinds[:2 + n % 2] for s in (a, b)
                     for m in (0, 1)}
                pairs = [(f[k, a, 0] * f[k, b, 0],
                          a * f[k, a, 1] * f[k, b, 0]
                          - b * f[k, a, 0] * f[k, b, 1])
                         for k in kinds[:2 + n % 2]]
                for slopes in (False, True):
                    p4, p3, *odd = (p[slopes] for p in pairs)
                    odd = 2 * odd[0] if odd else 0
                    truth = (n * (p4 - odd), n * (p3 - odd))
                    for (got, radius), true in zip(
                            _bounds(n, beta, slopes), truth):
                        assert abs(got - true) <= radius, (n, beta, slopes)


class TestLatticeParams:
    def test_constructor_fills_alpha(self):
        for n, beta in ((4, 0.5), (3, 0.5), (7, 0.3)):
            p = lattice_params(n, beta)
            assert p == LatticeParams(n, beta)
            assert (p.n, p.beta) == (n, beta)
            assert p.alpha == 1.0 / (n * beta)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True])
    def test_bad_n(self, n):
        with pytest.raises(DomainError):
            lattice_params(n, 0.5)

    @pytest.mark.parametrize("beta", [0.0, -0.5, math.inf, math.nan])
    def test_bad_beta(self, beta):
        with pytest.raises(DomainError):
            lattice_params(2, beta)

    @pytest.mark.parametrize("beta", [True, False])
    def test_bool_beta(self, beta):
        # a bool is no step, as it is no density: True would be beta = 1.0
        with pytest.raises(DomainError, match=f"beta={beta!r} "):
            lattice_params(2, beta)
        with pytest.raises(DomainError, match=f"beta={beta!r} "):
            find_optimal_beta(2, (beta, 1.5), 1e-6)
        # the grid rejects a bool endpoint before any sweep sees it
        with pytest.raises(DomainError, match="grid endpoints .* not bool"):
            sweep_beta(2, GridSpec(beta, 1.5, 2))

    def test_n_overflowing_a_float(self):
        # n * beta converts n to a float, which overflows before the
        # theta domain check could reject the lattice
        with pytest.raises(DomainError, match="overflows a float"):
            lattice_params(10 ** 400, 1.0)

    @pytest.mark.parametrize("beta", [1e-200, 1.4e-162, 5e-324])
    def test_beta_squared_underflowing(self, beta):
        # beta * beta rounds to 0, so b = 1/(2 beta^2) would divide by
        # zero before the theta domain check could reject the lattice
        with pytest.raises(DomainError, match="underflows"):
            LatticeParams(2, beta)
        with pytest.raises(DomainError, match="underflows"):
            find_optimal_beta(2, (beta, 1.0), 1e-6)


class TestDomain:
    def test_parity_dispatch_rejects_wrong_n(self):
        with pytest.raises(DomainError):
            frame_bounds_even(3, 0.5)
        with pytest.raises(DomainError):
            frame_bounds_odd(2, 0.5)
        with pytest.raises(DomainError):
            frame_bounds_even(0, 0.5)

    def test_extreme_beta_outside_theta_domain(self):
        # 0.5 (n beta)^2 or 0.5 / beta^2 leaves the supported window
        with pytest.raises(DomainError):
            frame_bounds_even(2, 1000.0)
        with pytest.raises(DomainError):
            frame_bounds_even(2, 5e-4)

    def test_params_type(self):
        with pytest.raises(DomainError):
            frame_bounds((2, 0.7))


_PARITY_BOUNDS = {0: frame_bounds_even, 1: frame_bounds_odd}


@pytest.mark.parametrize("entry", [
    LatticeParams,
    lattice_params,
    lambda n, beta: _PARITY_BOUNDS[n % 2](n, beta),
    lambda n, beta: find_optimal_beta(n, (min(beta, 0.5), max(beta, 0.6)),
                                      1e-6),
    lambda n, beta: sweep_beta(n, GridSpec(min(beta, 0.5), max(beta, 0.6),
                                           2)),
    lambda n, beta: grid_extrema_F(lattice_params(n, beta)),
    lambda n, beta: frame_bounds_via_F(lattice_params(n, beta)),
    lambda n, beta: janssen_F(0.5, 0.5, lattice_params(n, beta)),
], ids=["LatticeParams", "lattice_params", "frame_bounds_parity",
        "find_optimal_beta", "sweep_beta", "grid_extrema_F",
        "frame_bounds_via_F", "janssen_F"])
@pytest.mark.parametrize("n,beta,arg", [
    (2, 1e-4, "2e-08"), (2, 1e4, "200000000.0"),
    (3, 1e-4, "4.5000000000000006e-08"), (3, 1e4, "450000000.0")])
def test_outside_theta_domain_one_error(entry, n, beta, arg):
    # LatticeParams is the one theta-domain check: every entry point that
    # takes a lattice reports it in the same words
    with pytest.raises(DomainError) as exc:
        entry(n, beta)
    assert str(exc.value) == (f"beta={beta!r} puts theta argument {arg} "
                              "outside [1e-06, 1000000.0]")
