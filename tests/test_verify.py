"""Inequality check suite tests: full runs, filtering, edge inputs."""

import json
import math
from pathlib import Path

import pytest

from thetaframe import (THETA3, THETA4, THETA_ODD, CheckResult, DomainError,
                        GridSpec, SUITE_NAMES, ThetaValue, VerifyConfig,
                        all_passed, auto_k_max, log_deriv_ratio_bounds,
                        run_all, theta, verify)

ROOT = Path(__file__).resolve().parent.parent

PAIR_IDS = {"theta3-product-minimum": "theta3-product",
            "theta4-product-maximum": "theta4-product",
            "odd-combination-minimum": "odd-upper",
            "odd-combination-maximum": "odd-lower"}
PAIR_SUITES = pytest.mark.parametrize("suite", list(PAIR_IDS),
                                      ids=list(PAIR_IDS.values()))


def _run(suite, **grids):
    """The result of one suite, run through run_all on the given grids."""
    [res] = run_all(VerifyConfig(suites=(suite,), **grids))
    assert res.name == suite
    return res


@pytest.fixture
def theta_calls(monkeypatch):
    """The argument tuples of every eval_theta call, direct or through
    log_deriv_ratio_bounds, made while the test runs."""
    real = theta.eval_theta
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(theta, "eval_theta", counted)
    monkeypatch.setattr(verify, "eval_theta", counted)
    return calls


# small grids on which every suite runs in a few milliseconds
SMALL_GRIDS = dict(monotone_grid=GridSpec(0.5, 2.0, 5, "log"),
                   refined_grid=GridSpec(0.5, 2.0, 5, "log"),
                   product_grid=GridSpec(0.5, 2.0, 5, "log"),
                   odd_ratio_grid=GridSpec(1e-3, 10.0, 5, "log"),
                   logconv_grid=GridSpec(0.5, 2.0, 5, "log"),
                   conjecture_grid=GridSpec(0.5, 2.0, 5, "linear"))


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

    def test_theta_calls_of_a_full_run(self, theta_calls):
        # each run evaluates each distinct theta value once, through one
        # table of its own: the pair suites take theta at r s alone, one
        # argument per grid point and r, the odd combinations reuse the
        # product suites' values, the log-convexity suite shares s = 10
        # with the refined one, and a second run shares nothing with the
        # first
        for _ in range(2):
            theta_calls.clear()
            run_all()
            assert len(theta_calls) == 14225

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_every_suite_reads_the_table(self, theta_calls, suite):
        # a suite that summed its own series would bypass eval_theta, and
        # with it the benchmark's sample of bounds
        run_all(VerifyConfig(suites=(suite,), **SMALL_GRIDS))
        assert theta_calls

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
        for suite in ("theta3-log-ratio-monotone",
                      "theta4-log-ratio-monotone"):
            assert _run(suite, monotone_grid=grid).passed

    def test_degenerate_grid_flags_low_margin(self):
        grid = GridSpec(1.0, 1.0 + 1e-9, 2, "linear")
        res = _run("theta3-log-ratio-monotone", monotone_grid=grid)
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
    SUITE = "refined-log-convexity-concavity"

    def test_default_window(self):
        assert _run(self.SUITE,
                    refined_grid=GridSpec(0.05, 10.0, 60, "log")).passed

    def test_large_s_window(self):
        assert _run(self.SUITE,
                    refined_grid=GridSpec(20.0, 40.0, 5, "log")).passed


class TestProductInequality:
    GRID = GridSpec(1 / 3, 3.0, 61, "log")

    def test_theta3_min(self):
        assert _run("theta3-product-minimum", product_grid=self.GRID).passed

    def test_theta4_max(self):
        assert _run("theta4-product-maximum", product_grid=self.GRID).passed

    @pytest.mark.parametrize("suite", list(PAIR_IDS))
    def test_one_evaluation_per_distinct_pair_argument(self, theta_calls,
                                                        suite):
        # the pair at s_i takes its second factor at the mirrored point
        # r s_{G-1-i}, not at r/s_i, so theta is evaluated at r s_j alone,
        # once each: 1,204 arguments over the four r, 903 over three
        family = THETA4 if suite.endswith("maximum") else THETA3
        odd = suite.startswith("odd")
        r_values = (verify.ODD_MAXIMUM_R if odd and family == THETA4
                    else verify.PRODUCT_R)
        pts = VerifyConfig().product_grid.points()
        assert run_all(VerifyConfig(suites=(suite,)))[0].passed
        assert len(theta_calls) == len(set(theta_calls))
        assert set(theta_calls) == {
            (f, r * s, 0) for f in ((family, THETA_ODD) if odd else (family,))
            for r in r_values for s in pts}


class TestOddCombinations:
    GRID = GridSpec(1 / 3, 3.0, 61, "log")

    def test_upper(self):
        assert _run("odd-combination-minimum", product_grid=self.GRID).passed

    def test_lower(self):
        assert _run("odd-combination-maximum", product_grid=self.GRID).passed


class TestSymmetricGrid:
    """The pair suites compare every value with the center's, so they take
    only a grid of odd length whose mirrored points are reciprocal."""

    @PAIR_SUITES
    @pytest.mark.parametrize("grid", [
        GridSpec(0.5, 3.0, 21, "log"),
        GridSpec(1 / 3, 3.0, 20, "log"),
    ], ids=["asymmetric", "no-center"])
    def test_rejected(self, suite, grid):
        with pytest.raises(DomainError, match="symmetric about s = 1"):
            _run(suite, product_grid=grid)

    @PAIR_SUITES
    def test_center_below_one(self, suite):
        # mirrored points multiply to 1 within 2 ulps, and the center is
        # the float below 1
        grid = GridSpec(1 / 2.793, 2.793, 83, "log")
        assert grid.points()[41] == 1.0 - 2.0 ** -53
        assert _run(suite, product_grid=grid).passed


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
    CASES = [("theta3-product-minimum", THETA3, 0.5, 2.0),
             ("theta4-product-maximum", THETA4, 1.5, 2.0),
             ("odd-combination-minimum", THETA_ODD, 3.0, 1.0),
             ("odd-combination-maximum", THETA4, 1.5, 1.0)]
    IDS = [PAIR_IDS[case[0]] for case in CASES]

    @pytest.mark.parametrize("suite,family,factor,r", CASES, ids=IDS)
    def test_perturbed_pair_fails_at_its_point(self, monkeypatch, suite,
                                               family, factor, r):
        pts = self.GRID.points()
        s_k = pts[len(pts) // 2 - 1]  # next to the center s = 1
        _scale_first_call(monkeypatch, family, r * s_k, factor)
        res = _run(suite, product_grid=self.GRID)
        assert res.passed is False
        assert res.worst_location == (r, s_k)

    @pytest.mark.parametrize("suite,family,factor,r", CASES, ids=IDS)
    def test_perturbed_mirrored_factor_fails(self, monkeypatch, suite,
                                             family, factor, r):
        # the suites assert only left of the center; a value at r s_j
        # right of it enters the pair at the mirrored point s_{G-1-j} as
        # its second factor, and must fail there
        pts = self.GRID.points()
        center = len(pts) // 2
        _scale_first_call(monkeypatch, family, r * pts[center + 1], factor)
        res = _run(suite, product_grid=self.GRID)
        assert res.passed is False
        assert res.worst_location == (r, pts[center - 1])


class TestUncheckedClaims:
    """A suite passes only on a positive, finite worst slack."""

    def test_no_assertions_fails(self):
        # a tracker that asserted nothing has no worst slack to report
        res = verify._Tracker().result("x", 0)
        assert res.passed is False
        assert res.worst_residual == math.inf
        assert res.worst_location is None

    @pytest.mark.parametrize("suite,emptied", [
        pytest.param(suite, emptied, id=sid + tag)
        for emptied, tag in [(("PRODUCT_R", "ODD_MAXIMUM_R"), ""),
                             (("PRODUCT_R",), "-only-PRODUCT_R"),
                             (("ODD_MAXIMUM_R",), "-only-ODD_MAXIMUM_R")]
        for suite, sid in PAIR_IDS.items()
    ])
    def test_no_r_values_fails(self, monkeypatch, suite, emptied):
        # the theta4 combination reads ODD_MAXIMUM_R and the other three
        # PRODUCT_R, at call time; emptying a suite's own set leaves it
        # nothing to assert, and emptying the other set changes nothing
        own = ("ODD_MAXIMUM_R" if suite == "odd-combination-maximum"
               else "PRODUCT_R")
        kept = len(getattr(verify, own))
        for name in emptied:
            monkeypatch.setattr(verify, name, ())
        grid = GridSpec(1 / 3, 3.0, 21, "log")
        res = _run(suite, product_grid=grid)
        if own in emptied:
            assert res.points_tested == 0
            assert res.passed is False
            assert res.worst_residual == math.inf
            assert res.worst_location is None
        else:
            assert res.points_tested == kept * len(grid.points())
            assert res.passed

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
    """A family name, a tuple of lattice parameters, a tuple of grid
    fields or a suite name in place of the library's objects is a
    DomainError."""

    @pytest.mark.parametrize("call", [
        lambda: log_deriv_ratio_bounds("theta3", 1.0),
        lambda: auto_k_max((2, 0.7)),
        lambda: run_all(VerifyConfig(suites=("odd-log-ratio",),
                                     odd_ratio_grid=(1e-3, 10.0, 50))),
        lambda: run_all("odd-log-ratio"),
        lambda: VerifyConfig(suites=5),
        lambda: VerifyConfig(suites="odd-log-ratio"),
    ], ids=["log-ratio", "auto-k-max", "verify-config", "run-all",
            "suites-int", "suites-str"])
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestLemmaOddRatio:
    SUITE = "odd-log-ratio"

    def test_pass(self):
        assert _run(self.SUITE,
                    odd_ratio_grid=GridSpec(1e-3, 10.0, 200, "log")).passed

    def test_span_required(self):
        with pytest.raises(DomainError):
            _run(self.SUITE, odd_ratio_grid=GridSpec(0.01, 10.0, 100, "log"))
        with pytest.raises(DomainError):
            _run(self.SUITE, odd_ratio_grid=GridSpec(1e-3, 5.0, 100, "log"))

    @pytest.mark.parametrize("steps", [2, 3])
    def test_every_point_evaluated(self, steps):
        # theta_odd underflows at s = 300, so g_o is undefined there even
        # when the point is the only one at or above 1/4
        with pytest.raises(DomainError, match="underflows"):
            _run(self.SUITE,
                 odd_ratio_grid=GridSpec(1e-3, 300.0, steps, "log"))


class TestLogConvexity:
    """The suite checks theta3''theta3 - theta3'^2 >= 0 on the run's table."""

    SUITE = "exp-sum-log-convexity"

    def test_default_grid_pinned(self):
        res = _run(self.SUITE)
        assert res == CheckResult("exp-sum-log-convexity", True,
                                  4.482973819850126e-13, 10.0, 200)

    def test_constant(self):
        # past s = 237 every k >= 1 term underflows and f is the constant
        # 1: f''f - f'^2 is exactly 0, which must not fail, and the slack
        # is the subnormal radius alone
        res = _run(self.SUITE,
                   logconv_grid=GridSpec(300.0, 1000.0, 5, "log"))
        assert res.passed
        assert 0.0 < res.worst_residual < 1e-320

    def test_two_terms_strict(self):
        # on [60, 200] only f = 1 + 2 e^{-pi s} is left, whose
        # f''f - f'^2 = 2 pi^2 e^{-pi s} is positive and still normal
        res = _run(self.SUITE, logconv_grid=GridSpec(60.0, 200.0, 20, "log"))
        assert res.passed
        assert res.worst_location == 200.0
        assert res.worst_residual == pytest.approx(
            2.0 * math.pi ** 2 * math.exp(-200.0 * math.pi), rel=1e-11)

    def test_residual_matches_mpmath(self):
        # below s = 1/4 every order comes from the modular transform; the
        # residual there is theta3''theta3 - theta3'^2 plus its small radius
        mp = pytest.importorskip("mpmath")
        res = _run(self.SUITE, logconv_grid=GridSpec(0.05, 0.2, 50, "log"))
        assert res.passed
        with mp.workdps(40):
            s = mp.mpf(res.worst_location)
            f0, f1, f2 = (mp.fsum((2 if k else 1) * (-mp.pi * k * k) ** j
                                  * mp.exp(-mp.pi * k * k * s)
                                  for k in range(60)) for j in range(3))
            want = f2 * f0 - f1 ** 2
        assert res.worst_residual == pytest.approx(float(want), rel=1e-12)


class TestConjecture:
    SUITE = "theta4-ratio-conjecture"

    def test_informational(self):
        res = _run(self.SUITE,
                   conjecture_grid=GridSpec(0.5, 5.0, 50, "linear"))
        assert res.informational
        assert res.passed

    def test_requires_linear_grid(self):
        with pytest.raises(DomainError):
            _run(self.SUITE, conjecture_grid=GridSpec(0.5, 5.0, 50, "log"))
