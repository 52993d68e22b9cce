"""Inequality check suite tests: full runs, filtering, edge inputs."""

import functools
import json
import math
from pathlib import Path

import pytest

from thetaframe import (THETA3, THETA4, THETA_ODD, CheckResult, DomainError,
                        GridSpec, SUITE_NAMES, ThetaValue, VerifyConfig,
                        all_passed, auto_k_max,
                        check_lemma_odd_ratio, check_logconvexity_general,
                        check_monotone_log_ratio, check_odd_combination,
                        check_product_inequality,
                        check_refined_inequalities,
                        check_theta4_ratio_conjecture, log_deriv_ratio_bounds,
                        run_all, verify)

ROOT = Path(__file__).resolve().parent.parent

PAIR_CHECKS = pytest.mark.parametrize("check", [
    functools.partial(check_product_inequality, THETA3),
    functools.partial(check_product_inequality, THETA4),
    functools.partial(check_odd_combination, THETA3),
    functools.partial(check_odd_combination, THETA4),
], ids=["theta3-product", "theta4-product", "odd-upper", "odd-lower"])


class TestRunAll:
    def test_default_run_passes(self):
        results = run_all()
        assert [r.name for r in results] == list(SUITE_NAMES)
        assert all_passed(results)
        for r in results:
            assert r.passed
            assert not r.low_margin
            assert r.points_tested > 0

    def test_deterministic(self):
        assert run_all() == run_all()

    def test_suite_order_pinned(self):
        # the CLI's --suite choices, its verify JSON and the benchmark's
        # per-suite metrics and op cycle all follow this order
        want = ("theta3-log-ratio-monotone", "theta4-log-ratio-monotone",
                "refined-log-convexity-concavity", "theta3-product-minimum",
                "theta4-product-maximum", "odd-combination-minimum",
                "odd-combination-maximum", "odd-log-ratio",
                "exp-sum-log-convexity", "theta4-ratio-conjecture")
        assert SUITE_NAMES == want
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        timed = [m["name"] for m in spec["per_layer"]]
        assert [n for n in timed if n.endswith(".busy_s")
                and n.startswith("verify.")] == [
            f"verify.{name}.busy_s" for name in want]

    def test_suite_filter(self):
        results = run_all(VerifyConfig(suites=("odd-log-ratio",)))
        assert len(results) == 1
        assert results[0].name == "odd-log-ratio"
        assert results[0].passed

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            VerifyConfig(suites=("bogus",))

    @pytest.mark.parametrize("suites", [(), []])
    def test_empty_suites_rejected(self, suites):
        # an empty selection would check nothing, and all_passed([]) is
        # True; None still means every suite
        with pytest.raises(DomainError):
            VerifyConfig(suites=suites)
        assert VerifyConfig(suites=None).suites is None

    def test_informational_never_gates(self):
        ok = CheckResult("x", True, 0.1, None, 3)
        bad_info = CheckResult("y", False, -0.1, None, 3,
                               informational=True)
        bad = CheckResult("z", False, -0.1, None, 3)
        assert all_passed([ok, bad_info])
        assert not all_passed([ok, bad])
        assert all_passed([])


class TestMonotoneLogRatio:
    def test_families(self):
        grid = GridSpec(0.2, 5.0, 40, "log")
        assert check_monotone_log_ratio(THETA3, grid).passed
        assert check_monotone_log_ratio(THETA4, grid).passed
        with pytest.raises(DomainError):
            check_monotone_log_ratio(THETA_ODD, grid)

    def test_degenerate_grid_flags_low_margin(self):
        grid = GridSpec(1.0, 1.0 + 1e-9, 2, "linear")
        res = check_monotone_log_ratio(THETA3, grid)
        assert res.passed
        assert res.low_margin
        assert res.worst_residual < 1e-8

    @pytest.mark.parametrize("suite,calls", [
        ("theta3-log-ratio-monotone", 774),   # 1,000 points, reflected
        ("theta4-log-ratio-monotone", 1000),
        ("odd-log-ratio", 1251),              # 1,250 points and s = 1
        ("theta4-ratio-conjecture", 200),
    ])
    def test_one_ratio_evaluation_per_distinct_argument(self, monkeypatch,
                                                        suite, calls):
        args = []

        def counted(family, s):
            args.append(s)
            return log_deriv_ratio_bounds(family, s)

        monkeypatch.setattr(verify, "log_deriv_ratio_bounds", counted)
        assert run_all(VerifyConfig(suites=(suite,)))[0].passed
        assert len(args) == len(set(args)) == calls

    def test_reflection_identity(self):
        # the margin conditioning rests on g3(s) + g3(1/s) = -1/2
        for s in (0.5, 0.8):
            g1, e1 = log_deriv_ratio_bounds(THETA3, s)
            g2, e2 = log_deriv_ratio_bounds(THETA3, 1.0 / s)
            assert abs(g1 + g2 + 0.5) <= e1 + e2 + 1e-13


class TestRefined:
    def test_default_window(self):
        assert check_refined_inequalities(GridSpec(0.05, 10.0, 60, "log")).passed

    def test_large_s_window(self):
        assert check_refined_inequalities(GridSpec(20.0, 40.0, 5, "log")).passed


class TestProductInequality:
    GRID = GridSpec(1 / 3, 3.0, 61, "log")

    def test_theta3_min(self):
        res = check_product_inequality(THETA3, self.GRID)
        assert res.passed
        assert res.name == "theta3-product-minimum"

    def test_theta4_max(self):
        res = check_product_inequality(THETA4, self.GRID)
        assert res.passed
        assert res.name == "theta4-product-maximum"

    def test_rejects_odd_family(self):
        with pytest.raises(DomainError):
            check_product_inequality(THETA_ODD, GridSpec(0.5, 2.0, 21, "log"))

    @pytest.mark.parametrize("suite,calls", [
        # 1,779 distinct pair arguments over the four r
        ("theta3-product-minimum", 1779),
        ("theta4-product-maximum", 1779),
        # theta_odd and the family at each of the same arguments
        ("odd-combination-minimum", 3558),
        ("odd-combination-maximum", 2678),   # three r
    ])
    def test_one_evaluation_per_distinct_pair_argument(self, monkeypatch,
                                                        suite, calls):
        # the symmetric grid repeats most r s and r/s arguments
        real = verify.eval_theta
        args = []

        def counted(family, s):
            args.append((family, s))
            return real(family, s)

        monkeypatch.setattr(verify, "eval_theta", counted)
        assert run_all(VerifyConfig(suites=(suite,)))[0].passed
        assert len(args) == calls


class TestOddCombinations:
    GRID = GridSpec(1 / 3, 3.0, 61, "log")

    def test_upper(self):
        res = check_odd_combination(THETA3, self.GRID)
        assert res.passed
        assert res.name == "odd-combination-minimum"

    def test_lower(self):
        res = check_odd_combination(THETA4, self.GRID)
        assert res.passed
        assert res.name == "odd-combination-maximum"

    def test_rejects_odd_family(self):
        with pytest.raises(DomainError):
            check_odd_combination(THETA_ODD, GridSpec(0.5, 2.0, 21, "log"))


class TestSymmetricGrid:
    """The pair suites compare every value with the center's, so they take
    only a grid of odd length whose mirrored points are reciprocal."""

    @PAIR_CHECKS
    @pytest.mark.parametrize("grid", [
        GridSpec(0.5, 3.0, 21, "log"),
        GridSpec(1 / 3, 3.0, 20, "log"),
    ], ids=["asymmetric", "no-center"])
    def test_rejected(self, check, grid):
        with pytest.raises(DomainError, match="symmetric about s = 1"):
            check(grid)

    @PAIR_CHECKS
    def test_center_below_one(self, check):
        # mirrored points multiply to 1 within 2 ulps, and the center is
        # the float below 1
        grid = GridSpec(1 / 2.793, 2.793, 83, "log")
        assert grid.points()[41] == 1.0 - 2.0 ** -53
        assert check(grid).passed


def _scale_first_call(monkeypatch, family, s, factor):
    """Scale the first eval_theta(family, s) that verify makes by factor."""
    real = verify.eval_theta
    pending = [True]

    def fake(fam, arg, *args, **kwargs):
        tv = real(fam, arg, *args, **kwargs)
        if pending[0] and fam == family and arg == s:
            pending[0] = False
            return ThetaValue(factor * tv.value, factor * tv.error_bound,
                              tv.terms_used, tv.method)
        return tv

    monkeypatch.setattr(verify, "eval_theta", fake)


class TestNegativeControls:
    """One pair value pushed past the center value must fail there.

    Each suite runs all of its fixed r values; no other r evaluates the
    perturbed argument r s_k on this grid, so only r fails."""

    GRID = GridSpec(1 / 3, 3.0, 21, "log")

    @pytest.mark.parametrize("check,family,factor,r", [
        (functools.partial(check_product_inequality, THETA3), THETA3, 0.5,
         2.0),
        (functools.partial(check_product_inequality, THETA4), THETA4, 1.5,
         2.0),
        (functools.partial(check_odd_combination, THETA3), THETA_ODD, 3.0,
         1.0),
        (functools.partial(check_odd_combination, THETA4), THETA4, 1.5,
         1.0),
    ], ids=["theta3-product", "theta4-product", "odd-upper", "odd-lower"])
    def test_perturbed_pair_fails_at_its_point(self, monkeypatch, check,
                                               family, factor, r):
        pts = self.GRID.points()
        s_k = pts[len(pts) // 2 - 1]  # next to the center s = 1
        _scale_first_call(monkeypatch, family, r * s_k, factor)
        res = check(self.GRID)
        assert res.passed is False
        assert res.worst_location == (r, s_k)


class TestUncheckedClaims:
    """A suite passes only on a positive, finite worst slack."""

    def test_no_assertions_fails(self):
        # a tracker that asserted nothing has no worst slack to report
        res = verify._Tracker().result("x", 0)
        assert res.passed is False
        assert res.worst_residual == math.inf
        assert res.worst_location is None

    @PAIR_CHECKS
    def test_no_r_values_fails(self, monkeypatch, check):
        # with its fixed r values emptied, a pair check asserts nothing
        monkeypatch.setattr(verify, "PRODUCT_R", ())
        monkeypatch.setattr(verify, "ODD_MAXIMUM_R", ())
        res = check(GridSpec(1 / 3, 3.0, 21, "log"))
        assert res.points_tested == 0
        assert res.passed is False
        assert res.worst_residual == math.inf
        assert res.worst_location is None

    @pytest.mark.parametrize("slacks,first_nan", [
        ((math.nan, -5.0, 1.0), 0),
        ((1.0, -5.0, math.nan), 2),
        ((2.0, math.nan, math.nan, -5.0), 1),
    ])
    def test_nan_slack_is_the_worst(self, slacks, first_nan):
        track = verify._Tracker()
        for i, slack in enumerate(slacks):
            track.add((slack, 0.0), i)
        res = track.result("x", len(slacks))
        assert res.passed is False
        assert math.isnan(res.worst_residual)
        assert res.worst_location == first_nan

    def test_all_infinite_slacks_keep_a_location(self):
        # every slack is +inf; the first point is reported as the worst
        track = verify._Tracker()
        for s in (0.1, 1.0, 10.0):
            track.add((math.inf, 0.0), s)
        res = track.result("x", 3)
        assert res.passed is False
        assert res.worst_residual == math.inf
        assert res.worst_location == 0.1


class TestForeignArguments:
    """A family name, a tuple of lattice parameters or a tuple of grid
    fields in place of the library's objects is a DomainError."""

    GRID = GridSpec(1 / 3, 3.0, 21, "log")

    @pytest.mark.parametrize("call", [
        lambda: log_deriv_ratio_bounds("theta3", 1.0),
        lambda: check_monotone_log_ratio("theta3", TestForeignArguments.GRID),
        lambda: check_product_inequality("theta3", TestForeignArguments.GRID),
        lambda: check_odd_combination("theta4", TestForeignArguments.GRID),
        lambda: auto_k_max((2, 0.7)),
        lambda: run_all(VerifyConfig(suites=("odd-log-ratio",),
                                     odd_ratio_grid=(1e-3, 10.0, 50))),
    ], ids=["log-ratio", "monotone", "product", "odd-combination",
            "auto-k-max", "verify-config"])
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestLemmaOddRatio:
    def test_pass(self):
        assert check_lemma_odd_ratio(GridSpec(1e-3, 10.0, 200, "log")).passed

    def test_span_required(self):
        with pytest.raises(DomainError):
            check_lemma_odd_ratio(GridSpec(0.01, 10.0, 100, "log"))
        with pytest.raises(DomainError):
            check_lemma_odd_ratio(GridSpec(1e-3, 5.0, 100, "log"))

    @pytest.mark.parametrize("steps", [2, 3])
    def test_every_point_evaluated(self, steps):
        # theta_odd underflows at s = 300, so g_o is undefined there even
        # when the point is the only one at or above 1/4
        with pytest.raises(DomainError, match="underflows"):
            check_lemma_odd_ratio(GridSpec(1e-3, 300.0, steps, "log"))


class TestLogConvexity:
    """The check runs on theta3's series to k = 10, f = sum a e^{-b s}."""

    def test_default_grid_pinned(self):
        res = check_logconvexity_general(VerifyConfig().logconv_grid)
        assert res == CheckResult("exp-sum-log-convexity", True,
                                  4.482973819850171e-13, 10.0, 200)

    def test_constant(self):
        # past s = 237 every k >= 1 term underflows and f is the constant
        # 1: f''f - f'^2 is exactly 0, which must not fail, and the slack
        # is the subnormal radius alone
        res = check_logconvexity_general(GridSpec(300.0, 1000.0, 5, "log"))
        assert res.passed
        assert 0.0 < res.worst_residual < 1e-320

    def test_two_terms_strict(self):
        # on [60, 200] only f = 1 + 2 e^{-pi s} is left, whose
        # f''f - f'^2 = 2 pi^2 e^{-pi s} is positive and still normal
        res = check_logconvexity_general(GridSpec(60.0, 200.0, 20, "log"))
        assert res.passed
        assert res.worst_location == 200.0
        assert res.worst_residual == pytest.approx(
            2.0 * math.pi ** 2 * math.exp(-200.0 * math.pi), rel=1e-11)

    def test_residual_scaled_by_largest_term(self):
        # below s = ln 2/pi the k = 1 terms lead, so L = ln 2 - pi s > 0
        # and the residual is e^{-2L} (f''f - f'^2) plus its small radius
        mp = pytest.importorskip("mpmath")
        res = check_logconvexity_general(GridSpec(0.05, 0.2, 50, "log"))
        assert res.passed
        with mp.workdps(40):
            s = mp.mpf(res.worst_location)
            f0, f1, f2 = (mp.fsum((2 if k else 1) * (-mp.pi * k * k) ** j
                                  * mp.exp(-mp.pi * k * k * s)
                                  for k in range(11)) for j in range(3))
            want = mp.exp(-2 * (mp.log(2) - mp.pi * s)) * (f2 * f0 - f1 ** 2)
        assert math.log(2.0) / math.pi > res.worst_location
        assert res.worst_residual == pytest.approx(float(want), rel=1e-12)


class TestConjecture:
    def test_informational(self):
        res = check_theta4_ratio_conjecture(GridSpec(0.5, 5.0, 50, "linear"))
        assert res.informational
        assert res.passed

    def test_requires_linear_grid(self):
        with pytest.raises(DomainError):
            check_theta4_ratio_conjecture(GridSpec(0.5, 5.0, 50, "log"))
