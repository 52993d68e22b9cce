"""Brute-force cross-checks: naive sums and the lattice sum F."""

import cmath
import math
import random
import subprocess
import sys
import tracemalloc

import pytest

import reference_values as ref
from identities import naive_theta
from lattice_reference import full_grid_F
from thetaframe import (THETA3, THETA4, THETA_ODD, DomainError, ExtremaReport,
                        auto_k_max, eval_theta, frame_bounds,
                        frame_bounds_via_F, general_family, grid_extrema_F,
                        janssen_F, lattice_params, oracle)


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

    @pytest.mark.parametrize("beta", [2e-6 ** 0.5, 2e-6 ** -0.5])
    def test_domain_edge(self, beta):
        # a = 1e-6 or b = 1e-6: the largest K any buildable lattice needs
        assert auto_k_max(lattice_params(1, beta)) == 3904

    @pytest.mark.parametrize("oracle", [
        grid_extrema_F, frame_bounds_via_F,
        lambda params: janssen_F(0.5, 0.5, params)])
    def test_outside_theta_domain_rejected(self, oracle):
        # auto_k_max would be 28,727 here, a 6.6 GB weight matrix: the
        # lattice is rejected when it is built
        with pytest.raises(DomainError):
            oracle(lattice_params(2, 1e-4))

    def test_default_grid_leaves_numpy_unimported(self):
        # grids of up to 128 steps are searched in pure Python, so only a
        # larger grid pays for numpy's import
        script = (
            "import sys\n"
            "from thetaframe import frame_bounds_via_F, grid_extrema_F, "
            "janssen_F, lattice_params\n"
            "for n in (2, 3):\n"
            "    p = lattice_params(n, 0.6)\n"
            "    janssen_F(0.3, 0.8, p)\n"
            "    grid_extrema_F(p, 128)\n"
            "    frame_bounds_via_F(p, 128)\n"
            "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "False"

    def test_rejected_before_numpy_import(self):
        script = (
            "import sys\n"
            "from thetaframe import DomainError, grid_extrema_F, "
            "lattice_params\n"
            "try:\n"
            "    grid_extrema_F(lattice_params(2, 1e-4))\n"
            "except DomainError:\n"
            "    print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "False"


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

    @pytest.mark.parametrize("bad", [7, 8.0, True, -16, 4097])
    def test_bad_grid_steps(self, bad):
        # 4,097 steps is past the cap on the grid: rejected before numpy
        with pytest.raises(DomainError):
            grid_extrema_F(lattice_params(2, 0.7), grid_steps=bad)

    def test_params_type(self):
        with pytest.raises(DomainError):
            grid_extrema_F((2, 0.7))

    def test_explicit_k_max_converges(self, monkeypatch):
        # the derived K already holds the extrema to 1e-10: a larger one
        # does not move them
        params = lattice_params(2, 0.7)
        a = grid_extrema_F(params, 16)
        monkeypatch.setattr(oracle, "auto_k_max", lambda p: 12)
        b = grid_extrema_F(params, 16)
        assert a.max_value == pytest.approx(b.max_value, abs=1e-10)
        assert a.min_value == pytest.approx(b.min_value, abs=1e-10)
        assert a.truncation_K == auto_k_max(params) < 12
        assert b.truncation_K == 12


def _reference_cases():
    # seeded lattices of both parities on every grid, with beta sqrt(n)
    # = 10^t for t in [-2.5, 2.5], and both ends of that range; 128 and
    # 129 steps sit either side of the pure-Python search; at n = 2,
    # t = 2.5 min u cancels to rounding and min F comes out near or below 0
    rng = random.Random(16)
    cases = [(rng.choice(ns), rng.uniform(-2.5, 2.5), grid)
             for grid in (8, 9, 127, 128, 256, 129, 130)
             for ns in ((2, 4, 6, 8), (1, 3, 5, 7, 9)) for _ in range(3)]
    return cases + [(n, t, 128) for n in (2, 3) for t in (-2.5, 2.5)]


class TestAgainstFullGrid:
    @pytest.mark.parametrize("n,t,grid", _reference_cases())
    def test_extrema_match(self, n, t, grid):
        params = lattice_params(n, 10.0 ** t / math.sqrt(n))
        f = full_grid_F(params, grid)
        rep = grid_extrema_F(params, grid)
        assert rep.truncation_K == auto_k_max(params)
        tol = 1e-13 * float(abs(f).max())
        for value, loc, ref in ((rep.max_value, rep.argmax, f.argmax()),
                                (rep.min_value, rep.argmin, f.argmin())):
            ref_i, ref_j = divmod(int(ref), grid)
            assert abs(value - f[ref_i, ref_j]) <= tol
            # the same point up to the mirror i <-> G - i, or a tie
            i, j = (round(v * grid) for v in loc)
            assert ((i, j) == (min(ref_i, grid - ref_i),
                               min(ref_j, grid - ref_j))
                    or abs(f[i, j] - f[ref_i, ref_j]) <= tol)

    def test_four_corners(self, monkeypatch):
        # a u below zero pairs with the maximum of v, not its minimum, in
        # the pure-Python search (8 steps) and in numpy's (256 steps); n =
        # 2 doubles u, so F = u_i v_j for the halved u that _sums returns
        import numpy as np
        pad = [0.5] * 124
        u = np.array([3.0, 1.0, -1e-13, 2.0, 0.5] + pad)
        v = np.array([1.0, 0.5, 0.25, 0.75, 0.125] + pad)
        for grid in (8, 256):
            def sums(x, k_max, a, b, cos=math.cos, grid=grid):
                i = np.rint(np.multiply(x, grid)).astype(int)
                return u[i] / 2, v[i], 0.0 * u[i], 0.0 * v[i]

            monkeypatch.setattr(oracle, "_sums", sums)
            rep = grid_extrema_F(lattice_params(2, 0.7), grid)
            assert (rep.max_value, rep.argmax) == (3.0, (0.0, 0.0))
            assert (rep.min_value, rep.argmin) == (-1e-13, (2 / grid, 0.0))

    @pytest.mark.parametrize("parity", [0, 1])
    def test_array_sums_match_scalar_sums(self, parity):
        # numpy's search runs _sums over the whole grid at once; with an
        # elementwise math.cos each element must get exactly the floats
        # the pure-Python search gets for that x alone
        import numpy as np
        cos = np.vectorize(math.cos, otypes=[float])
        rng = random.Random(256 + parity)
        for n in (2 * rng.randint(1, 4) + parity for _ in range(4)):
            params = lattice_params(n, 10.0 ** rng.uniform(-2.5, 2.5) /
                                    math.sqrt(n))
            k_max, a, b = oracle._weights(params)
            xs = np.arange(129) / 256
            arrays = oracle._sums(xs, k_max, a, b, cos)
            for i, x in enumerate(xs.tolist()):
                assert [float(s[i]) for s in arrays] == \
                    list(oracle._sums(x, k_max, a, b))

    @pytest.mark.parametrize("parity", [0, 1])
    def test_engines_agree_at_128_steps(self, monkeypatch, parity):
        # the pure-Python and numpy searches of one grid, on seeded lattices
        # within a decade of 1/sqrt(n), where the minimum is not rounding
        # noise: the same points, values a few ulps apart
        rng = random.Random(128 + parity)
        lattices = [lattice_params(n, 10.0 ** rng.uniform(-0.5, 0.5) /
                                   math.sqrt(n))
                    for n in (2 * rng.randint(1, 4) + parity
                              for _ in range(12))]
        pure = [grid_extrema_F(p, 128) for p in lattices]
        monkeypatch.setattr(oracle, "_PURE_MAX_STEPS", 0)
        for a, b in zip(pure, (grid_extrema_F(p, 128) for p in lattices)):
            assert (a.argmax, a.argmin, a.truncation_K) == \
                (b.argmax, b.argmin, b.truncation_K)
            ulp = math.ulp(a.max_value)
            assert abs(a.max_value - b.max_value) <= 4 * ulp
            assert abs(a.min_value - b.min_value) <= 4 * ulp


@pytest.mark.parametrize("n,limit", [(2, 1e6), (3, 40e6)])
def test_peak_memory_at_largest_grid(n, limit):
    # the full-grid search peaked at about 134 MB here for either parity,
    # and a cosine table over the grid and K at 64 MB for even n at the
    # domain edge (beta = 7.1e-4, K = 3,887); tracemalloc sees numpy's
    # arrays, and numpy is imported beforehand by a grid too large for the
    # pure-Python search
    for beta in (1.0 / math.sqrt(n), 7.1e-4):
        params = lattice_params(n, beta)
        grid_extrema_F(params, 256)
        tracemalloc.start()
        try:
            grid_extrema_F(params, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, beta


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

    def test_weights_computed_once(self, monkeypatch):
        # the bound's tail and Lipschitz terms reuse the K and weights of
        # its own grid search, in either engine
        real, calls = oracle.auto_k_max, []
        monkeypatch.setattr(oracle, "auto_k_max",
                            lambda p: calls.append(p) or real(p))
        for grid in (16, 256):
            for params in (lattice_params(2, 0.7), lattice_params(3, 0.5)):
                frame_bounds_via_F(params, grid)
                assert calls == [params]
                calls.clear()

    def test_error_bound_looser_than_closed(self):
        params = lattice_params(2, 0.7)
        closed = frame_bounds(params)
        grid = frame_bounds_via_F(params, grid_steps=16)
        assert grid.error_bound > closed.error_bound
