"""Brute-force cross-checks: naive sums and the lattice sum F."""

import cmath
import math

import pytest

import reference_values as ref
from thetaframe import (THETA3, THETA4, THETA_ODD, ConvergenceError,
                        DomainError, ExtremaReport, ThetaFamily, auto_k_max,
                        eval_theta, frame_bounds,
                        frame_bounds_via_F, general_family, grid_extrema_F,
                        janssen_F, lattice_params, naive_theta)


class TestNaiveTheta:
    def test_stabilizes(self):
        for fam in (THETA3, THETA4, THETA_ODD):
            assert abs(naive_theta(fam, 1.0, 5) -
                       naive_theta(fam, 1.0, 50)) < 1e-13

    def test_matches_eval(self):
        for fam in (THETA3, THETA4, THETA_ODD):
            for s in (0.3, 1.0, 2.5):
                assert abs(naive_theta(fam, s, 40) -
                           eval_theta(fam, s).value) < 1e-13

    def test_k0_truncation(self):
        assert naive_theta(THETA3, 1.0, 0) == 1.0
        assert naive_theta(THETA4, 1.0, 0) == 1.0
        # odd family indexes m = 2j+1, so j <= 0 keeps the m = +-1 pair
        assert naive_theta(THETA_ODD, 1.0, 0) == \
            pytest.approx(2.0 * math.exp(-math.pi), rel=1e-15)

    def test_frozen(self):
        assert naive_theta(THETA4, 1.0, 50) == \
            pytest.approx(ref.THETA4_AT_1, abs=1e-14)
        assert naive_theta(THETA_ODD, 1.0, 50) == \
            pytest.approx(ref.THETA_ODD_AT_1, abs=1e-14)

    def test_general(self):
        fam = general_family(0.25)
        got = naive_theta(fam, 1.0, 30)
        want = eval_theta(general_family(0.25), 1.0)
        assert abs(got - want.value) <= want.error_bound + 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            naive_theta(THETA3, 0.0, 5)
        with pytest.raises(DomainError):
            naive_theta(THETA3, -1.0, 5)
        with pytest.raises(DomainError):
            naive_theta(THETA3, 1.0, -1)
        with pytest.raises(DomainError):
            naive_theta(THETA3, 1.0, 1.5)
        with pytest.raises(DomainError):
            naive_theta("theta3", 1.0, 5)
        with pytest.raises(DomainError):
            naive_theta(ThetaFamily("bogus"), 1.0, 5)
        with pytest.raises(DomainError):
            naive_theta(ThetaFamily("theta_general"), 1.0, 5)


class TestJanssenF:
    @pytest.mark.parametrize("n,beta", [(1, 1.0), (2, 2.0 ** -0.5),
                                        (2, 1.0), (3, 3.0 ** -0.5),
                                        (3, 0.5), (4, 0.5), (5, 0.45)])
    def test_corners_recover_bounds(self, n, beta):
        params = lattice_params(n, beta)
        fb = frame_bounds(params)
        assert janssen_F(0.0, 0.0, params) == pytest.approx(
            fb.upper, abs=1e-10)
        assert janssen_F(0.5, 0.5, params) == pytest.approx(
            fb.lower, abs=1e-10)

    def test_outside_unit_square(self):
        params = lattice_params(2, 0.7)
        for x, w in ((-0.1, 0.0), (1.1, 0.0), (0.0, -0.2), (0.5, 1.5)):
            with pytest.raises(DomainError):
                janssen_F(x, w, params)

    def test_params_type(self):
        with pytest.raises(DomainError):
            janssen_F(0.0, 0.0, (2, 0.7))

    def test_even_factorization(self):
        # for even n the double sum splits into a product of two
        # one-dimensional theta sections
        import random
        rng = random.Random(11)
        for n, beta in ((2, 0.7), (2, 2.0 ** -0.5), (4, 0.4)):
            params = lattice_params(n, beta)
            sa = 0.5 / params.alpha ** 2
            sb = 0.5 / params.beta ** 2
            for _ in range(6):
                x = rng.random()
                w = rng.random()
                lhs = janssen_F(x, w, params)
                rhs = n * eval_theta(general_family(w), sa).value * \
                    eval_theta(general_family(x), sb).value
                assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_odd_phase_real(self):
        # complex-exponential form of the sum: the imaginary part must
        # cancel and the real part must equal the cosine form
        params = lattice_params(3, 0.6)
        kk = auto_k_max(params)
        total = 0.0 + 0.0j
        x, w = 0.3, 0.8
        for k in range(-kk, kk + 1):
            for l in range(-kk, kk + 1):
                phase = (-1.0) ** (k * l * params.n)
                mag = math.exp(-0.5 * math.pi * (
                    k ** 2 / params.beta ** 2 + l ** 2 / params.alpha ** 2))
                total += phase * mag * cmath.exp(
                    2j * math.pi * (k * x + l * w))
        total *= params.n
        assert abs(total.imag) < 1e-13
        assert total.real == pytest.approx(
            janssen_F(x, w, params), abs=1e-12)


class TestAutoKMax:
    def test_square_lattice(self):
        assert auto_k_max(lattice_params(2, 2.0 ** -0.5)) == 4

    def test_eccentric_larger(self):
        k_round = auto_k_max(lattice_params(2, 2.0 ** -0.5))
        k_flat = auto_k_max(lattice_params(2, 0.1))
        assert k_flat > k_round

    def test_cap(self):
        with pytest.raises(ConvergenceError):
            auto_k_max(lattice_params(1, 1e-5))

    @pytest.mark.parametrize("oracle", [
        grid_extrema_F, frame_bounds_via_F,
        lambda params: janssen_F(0.5, 0.5, params)])
    def test_outside_theta_domain_rejected(self, oracle):
        # auto_k_max is 28,727 here: its weight matrix would take 6.6 GB
        with pytest.raises(DomainError):
            oracle(lattice_params(2, 1e-4))


class TestGridExtrema:
    @pytest.mark.parametrize("n,beta", [(2, 2.0 ** -0.5), (3, 0.4)])
    def test_locations(self, n, beta):
        rep = grid_extrema_F(lattice_params(n, beta), grid_steps=64)
        assert isinstance(rep, ExtremaReport)
        assert rep.argmax == (0.0, 0.0)
        assert rep.argmin == (0.5, 0.5)
        assert rep.grid_steps == 64
        assert rep.truncation_K >= 1

    def test_values_match_closed_form(self):
        params = lattice_params(2, 1.0)
        rep = grid_extrema_F(params, grid_steps=8)
        fb = frame_bounds(params)
        assert rep.max_value == pytest.approx(fb.upper, abs=1e-10)
        assert rep.min_value == pytest.approx(fb.lower, abs=1e-10)

    @pytest.mark.parametrize("bad", [7, 8.0, True, -16])
    def test_bad_grid_steps(self, bad):
        with pytest.raises(DomainError):
            grid_extrema_F(lattice_params(2, 0.7), grid_steps=bad)

    def test_bad_k_max(self):
        with pytest.raises(DomainError):
            grid_extrema_F(lattice_params(2, 0.7), k_max=0)

    def test_params_type(self):
        with pytest.raises(DomainError):
            grid_extrema_F((2, 0.7))

    def test_explicit_k_max_converges(self):
        params = lattice_params(2, 0.7)
        a = grid_extrema_F(params, 16, k_max=3)
        b = grid_extrema_F(params, 16, k_max=12)
        assert a.max_value == pytest.approx(b.max_value, abs=1e-10)
        assert a.truncation_K == 3
        assert b.truncation_K == 12


class TestFrameBoundsViaF:
    @pytest.mark.parametrize("n,beta", [(2, 2.0 ** -0.5), (2, 0.8),
                                        (3, 3.0 ** -0.5), (4, 0.5)])
    def test_agrees_with_closed_form(self, n, beta):
        params = lattice_params(n, beta)
        closed = frame_bounds(params)
        grid = frame_bounds_via_F(params, grid_steps=128)
        assert abs(grid.lower - closed.lower) <= grid.error_bound
        assert abs(grid.upper - closed.upper) <= grid.error_bound
        assert grid.valid

    def test_error_bound_looser_than_closed(self):
        params = lattice_params(2, 0.7)
        closed = frame_bounds(params)
        grid = frame_bounds_via_F(params, grid_steps=16)
        assert grid.error_bound > closed.error_bound
