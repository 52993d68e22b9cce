"""Closed-form frame bound tests against frozen references."""

import math
import random

import pytest

import reference_values as ref
from thetaframe import (DomainError, FrameBounds, LatticeParams,
                        frame_bounds, frame_bounds_even, frame_bounds_odd,
                        lattice_params)
from thetaframe.frame import _frame_slopes

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
        slopes = _frame_slopes(n, beta)
        a = 0.5 * (n * beta) * (n * beta)
        b = 0.5 / (beta * beta)
        with mp.workdps(50):
            def pair(kind):
                f = ref.theta_reference
                return (a * f(kind, a, 1) * f(kind, b, 0)
                        - b * f(kind, a, 0) * f(kind, b, 1))
            odd = 2 * pair("theta_odd") if n % 2 else 0
            truth = (n * (pair("theta4") - odd), n * (pair("theta3") - odd))
            for got, true in zip(slopes, truth):
                assert abs(mp.mpf(got.value) - true) <= \
                    mp.mpf(got.error_bound), (n, beta, got.value, true)


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

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            frame_bounds(lattice_params(2, 0.7), tol=0.0)

    def test_params_type(self):
        with pytest.raises(DomainError):
            frame_bounds((2, 0.7))
