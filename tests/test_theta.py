"""Core evaluator tests: frozen oracle values, identities, error bounds."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from identities import (direct, fact2_residual, jacobi_identity_residual,
                        theta_odd_poisson_residual)
from thetaframe import (THETA3, THETA4, THETA_ODD, ConvergenceError,
                        DerivativeOrder, DomainError, EvalMethod, GridSpec,
                        ThetaFamily, ThetaValue, eval_theta, general_family,
                        log_deriv_ratio_bounds, theta4_triple_product)
from thetaframe import theta
from thetaframe.theta import S_MAX, S_MIN, SMALL_S_CUTOFF, TOL_FLOOR

ULP = math.ulp(1.0)


def agrees(tv, expected):
    # frozen references are correctly rounded doubles, give them 2 ulps
    return abs(tv.value - expected) <= tv.error_bound + 2 * math.ulp(abs(expected))


class TestFrozenValues:
    def test_theta3(self):
        assert agrees(eval_theta(THETA3, 1.0), ref.THETA3_AT_1)
        assert agrees(eval_theta(THETA3, 2.0), ref.THETA3_AT_2)
        assert agrees(eval_theta(THETA3, 0.5), ref.THETA3_AT_HALF)
        assert agrees(eval_theta(THETA3, 1.5), ref.THETA3_AT_3_2)

    def test_theta4(self):
        assert agrees(eval_theta(THETA4, 1.0), ref.THETA4_AT_1)
        assert agrees(eval_theta(THETA4, 2.0), ref.THETA4_AT_2)
        assert agrees(eval_theta(THETA4, 0.5), ref.THETA4_AT_HALF)
        assert agrees(eval_theta(THETA4, 0.25), ref.THETA4_AT_QUARTER)
        assert agrees(eval_theta(THETA4, 1.5), ref.THETA4_AT_3_2)

    def test_theta_odd(self):
        assert agrees(eval_theta(THETA_ODD, 1.0), ref.THETA_ODD_AT_1)
        assert agrees(eval_theta(THETA_ODD, 0.5), ref.THETA_ODD_AT_HALF)
        assert agrees(eval_theta(THETA_ODD, 1.5), ref.THETA_ODD_AT_3_2)

    def test_general(self):
        assert agrees(eval_theta(general_family(0.25), 1.0),
                      ref.GENERAL_QUARTER_AT_1)

    def test_first_derivatives(self):
        assert agrees(eval_theta(THETA3, 1.0, 1), ref.D_THETA3_AT_1)
        assert agrees(eval_theta(THETA4, 1.0, 1), ref.D_THETA4_AT_1)
        assert agrees(eval_theta(THETA_ODD, 1.0, 1), ref.D_THETA_ODD_AT_1)

    def test_second_derivative(self):
        assert agrees(eval_theta(THETA3, 1.0, 2), ref.DD_THETA3_AT_1)

    def test_log_ratio_at_1(self):
        # the reflection identity forces g3(1) = -1/4 exactly
        g, err = log_deriv_ratio_bounds(THETA3, 1.0)
        assert abs(g + 0.25) <= err + 4 * ULP
        g_odd = log_deriv_ratio_bounds(THETA_ODD, 1.0)[0]
        assert abs(g_odd - ref.G_ODD_AT_1) < 1e-12


class TestValueRecord:
    """eval_theta builds its immutable ThetaValue with tuple.__new__,
    without the generated __new__; the record must be the one
    ThetaValue(...) builds."""

    @pytest.mark.parametrize("family,s,order", [
        (THETA3, 1.3, 0), (THETA4, 0.01, 1), (THETA_ODD, 3.0, 2),
        (general_family(0.3), 0.1, 2)])
    def test_same_record_as_constructor(self, family, s, order):
        tv = eval_theta(family, s, order)
        built = ThetaValue(tv.value, tv.error_bound, tv.terms_used,
                           tv.method)
        assert type(tv) is ThetaValue
        assert tv == built and built == tv
        assert hash(tv) == hash(built)
        assert repr(tv) == repr(built)
        assert tv._asdict() == built._asdict()
        assert pickle.dumps(tv) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(tv)) == built

    @pytest.mark.parametrize("field", ThetaValue._fields)
    def test_frozen(self, field):
        tv = eval_theta(THETA3, 1.3)
        with pytest.raises(AttributeError):
            setattr(tv, field, 0)
        with pytest.raises(AttributeError):
            delattr(tv, field)


@pytest.mark.parametrize("family", [THETA3, THETA4, THETA_ODD])
class TestCertifiedBounds:
    """The reported interval must contain a 50-digit recomputation."""

    def _true(self, family, s, order):
        mp = pytest.importorskip("mpmath")
        # theta4 at small s cancels down to ~exp(-pi/(4s)); at large s the
        # derivatives sit ~exp(-pi*s) below the value, and mp.diff runs
        # finite differences on the value scale. Both need extra digits.
        mp.mp.dps = 80 + int(1.5 * s) + int(0.45 / s)
        idx = {"theta3": 3, "theta4": 4}.get(family.kind)
        if idx is not None:
            def f(t):
                return mp.jtheta(idx, 0, mp.exp(-mp.pi * t))
        else:
            def f(t):
                return mp.jtheta(2, 0, mp.exp(-4 * mp.pi * t))
        out = mp.diff(f, mp.mpf(s), order) if order else f(mp.mpf(s))
        mp.mp.dps = 50
        return out

    def test_containment(self, family):
        seeds = {"theta3": 101, "theta4": 202, "theta_odd": 303}
        rng = random.Random(seeds[family.kind])
        for _ in range(25):
            s = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
            order = rng.randrange(3)
            tv = eval_theta(family, s, order)
            true = self._true(family, s, order)
            assert abs(tv.value - float(true)) <= tv.error_bound + \
                2 * math.ulp(abs(float(true))), (family.kind, s, order)

    def test_containment_forced_direct(self, family):
        for s in (0.05, 0.2, 1.0, 7.0):
            for order in (0, 1, 2):
                value, bound = direct(family.kind, s, order)
                true = float(self._true(family, s, order))
                assert abs(value - true) <= bound + 2 * math.ulp(abs(true))


def test_general_containment():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(7)
    for _ in range(25):
        z = rng.uniform(-2.0, 2.0)
        s = math.exp(rng.uniform(math.log(0.01), math.log(20.0)))
        mp.mp.dps = 60 + int(0.45 / s)
        tv = eval_theta(general_family(z), s)
        true = float(mp.jtheta(3, mp.pi * mp.mpf(z), mp.exp(-mp.pi * mp.mpf(s))))
        assert abs(tv.value - true) <= tv.error_bound + 2 * math.ulp(abs(true))
    mp.mp.dps = 50


def test_containment_full_domain():
    """Every family and order 0-2 at seeded s over the whole domain, and
    the theta4 triple product from s = 1e-3 up (its cost grows like 1/s).

    z is drawn from [0, 1), where the mod-1 reduction is exact, so the
    reference sees the same argument as the evaluator.
    """
    mp = pytest.importorskip("mpmath")
    rng = random.Random(20160112)
    lo, hi = math.log(1e-6), math.log(1e6)
    families = [THETA3, THETA4, THETA_ODD]
    for _ in range(8):
        families += [general_family(0.0), general_family(0.5),
                     general_family(rng.random())]
    for fam in families:
        for order in (0, 1, 2):
            for _ in range(24 if fam.z is None else 3):
                s = math.exp(rng.uniform(lo, hi))
                tv = eval_theta(fam, s, order)
                true = ref.theta_reference(fam.kind, s, order, fam.z)
                with mp.workdps(50):
                    err = abs(mp.mpf(tv.value) - true)
                    assert err <= mp.mpf(tv.error_bound), \
                        (fam, s, order, tv, true)
    for _ in range(48):
        s = math.exp(rng.uniform(math.log(1e-3), hi))
        tv = theta4_triple_product(s)
        true = ref.theta_reference("theta4", s, 0)
        with mp.workdps(50):
            assert abs(mp.mpf(tv.value) - true) <= mp.mpf(tv.error_bound), \
                (s, tv, true)


# s bands of the one-series transform: just below the cutoff u = lam/s is
# smallest, and the theta_odd inner term y = pi u sits near the root 2.72
# of P_2; at the bottom of the domain u is largest
_TRANSFORM_BANDS = ((0.2, math.nextafter(0.25, 0.0)), (1e-6, 1e-5))
# z near 0 and 1 puts a shifted index at y ~ 0, where P_1, P_2 are -1/2, 3/4
_TRANSFORM_FAMILIES = (THETA3, THETA4, THETA_ODD, general_family(0.0),
                       general_family(1e-9), general_family(0.5),
                       general_family(1.0 - 1e-9))


def _check_transform_orders(points_per_band, seed):
    """Orders 1-2 below the cutoff against the 50-digit reference: both
    band ends plus seeded log-uniform points inside, per family."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(seed)
    for lo, hi in _TRANSFORM_BANDS:
        pts = [lo, hi] + [math.exp(rng.uniform(math.log(lo), math.log(hi)))
                          for _ in range(points_per_band - 2)]
        for fam in _TRANSFORM_FAMILIES:
            for order in (1, 2):
                for s in pts:
                    tv = eval_theta(fam, s, order)
                    assert tv.method is EvalMethod.TRANSFORM
                    true = ref.theta_reference(fam.kind, s, order, fam.z)
                    with mp.workdps(50):
                        err = abs(mp.mpf(tv.value) - true)
                        assert err <= mp.mpf(tv.error_bound), \
                            (fam, s, order, tv, true)


def test_transform_orders_contain_reference():
    _check_transform_orders(4, 8)


def test_series_tail_bounds_through_majorant():
    # Q(p) = P_1(p s) = p s - 1/2 vanishes at index 2 for s = 1/(8 pi); a
    # tail bounded by |Q| at the next index would stop there and drop the
    # index-3 term, ~0.4
    mp = pytest.importorskip("mpmath")
    s = 1.0 / (8.0 * math.pi)
    v, b = theta._ball(*theta._series("theta3", s, 1, reflected=True))
    with mp.workdps(50):
        y = [mp.pi * k * k * mp.mpf(s) for k in range(-40, 41)]
        true = sum((t - mp.mpf(0.5)) * mp.exp(-t) for t in y)
        assert abs(mp.mpf(v) - true) <= mp.mpf(b)


@pytest.mark.slow
def test_transform_orders_contain_reference_dense():
    _check_transform_orders(72, 88)


def _both_routes(count):
    """count log-spaced s over the domain, its ends included, then the
    cutoff and the float just below it."""
    return ([10.0 ** (-6.0 + 12.0 * j / (count - 1)) for j in range(count)]
            + [SMALL_S_CUTOFF, math.nextafter(SMALL_S_CUTOFF, 0.0)])


def _check_thetas(count):
    """_thetas contains the 50-digit theta3, theta4 and, for odd n,
    theta_odd at orders 0-2, on both routes; below the cutoff its theta3
    and theta4 are eval_theta's, bit for bit."""
    mp = pytest.importorskip("mpmath")
    for s in _both_routes(count):
        for order in (0, 1, 2):
            want = [ref.theta_reference(kind, s, order)
                    for kind in ("theta3", "theta4", "theta_odd")]
            same = [(tv.value, tv.error_bound) for tv in
                    (eval_theta(f, s, order) for f in (THETA3, THETA4))]
            for odd in (0, 1):
                got = theta._thetas(s, order, odd)
                assert len(got) == 2 + odd
                with mp.workdps(50):
                    for (g, r_g), true in zip(got, want):
                        assert abs(mp.mpf(g) - true) <= mp.mpf(r_g), \
                            (s, order, odd)
                if s < SMALL_S_CUTOFF:
                    assert got[:2] == same, (s, order)


def test_thetas_contain_reference():
    _check_thetas(100)


@pytest.mark.slow
def test_thetas_contain_reference_dense():
    _check_thetas(1200)


class _RecordedExp:
    """The math module, with exp recording its arguments."""

    def __init__(self):
        self.args = []

    def exp(self, x):
        self.args.append(x)
        return math.exp(x)

    def __getattr__(self, name):
        return getattr(math, name)


def test_no_exp_argument_repeats(monkeypatch):
    """No exp argument repeats within one integer-index series, direct or
    reflected: the next term's e^{-p s} is the last tail probe's, and a
    tail ratio whose exponent is the last term's takes that one. A
    _thetas pass runs two series, theta_even and theta_odd, at x = s or
    1/(4s), and repeats one argument at most: -16 pi x, theta_even's
    probe at index 4 and, once theta_odd's tail is checked at probe 3,
    the ratio there, e^{-pi (5^2 - 3^2) x}. The two series do not share
    it, so each stays a plain single-mode loop. Checked on eval_theta's
    routes; a series run on to an absolute 1e-60 would be long enough for
    a ratio's exponent to equal an earlier term's, which is computed
    again. P_z, the series behind
    Theta(z, is) below the cutoff, is exempt: its term index z + (n + 1)
    and tail probe index (z + n) + 1 can differ in the last bit, so both
    are computed."""
    rec = _RecordedExp()
    monkeypatch.setattr(theta, "math", rec)
    shared = 0
    for s in _both_routes(150):
        x = s if s >= SMALL_S_CUTOFF else 0.25 / s
        for order in (0, 1, 2):
            for fam in (THETA3, THETA4, THETA_ODD, general_family(0.3)):
                if fam.z is None or s >= SMALL_S_CUTOFF:
                    rec.args.clear()
                    eval_theta(fam, s, order)
                    # an exp bound outside theta.math records nothing,
                    # and an empty list has no repeats
                    assert rec.args and \
                        len(set(rec.args)) == len(rec.args), \
                        (fam, s, order, rec.args)
            for odd in (0, 1):
                rec.args.clear()
                theta._thetas(s, order, odd)
                repeats = len(rec.args) - len(set(rec.args))
                assert repeats == rec.args.count(-math.pi * 16 * x) - 1 \
                    <= 1, (s, order, odd, rec.args)
                shared += repeats
    assert shared


@pytest.mark.slow
def test_triple_product_deep_sweep():
    """theta4_triple_product from s = 1e-5 to 1e-3, where its cost grows
    like 1/s (one point at 1e-5 takes about 0.6 s)."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1005)
    lo, hi = math.log(1e-5), math.log(1e-3)
    for s in [1e-5] + [math.exp(rng.uniform(lo, hi)) for _ in range(15)]:
        tv = theta4_triple_product(s)
        true = ref.theta_reference("theta4", s, 0)
        with mp.workdps(50):
            assert abs(mp.mpf(tv.value) - true) <= mp.mpf(tv.error_bound), \
                (s, tv, true)


class TestMethodSelection:
    def test_transform_below_cutoff(self):
        for fam in (THETA3, THETA4, THETA_ODD, general_family(0.3)):
            for order in (0, 1, 2):
                assert eval_theta(fam, 0.1, order).method is \
                    EvalMethod.TRANSFORM
                assert eval_theta(fam, 0.3, order).method is \
                    EvalMethod.DIRECT

    def test_transform_matches_direct(self):
        families = (THETA3, THETA4, THETA_ODD, general_family(0.0),
                    general_family(0.3), general_family(0.5))
        for fam in families:
            for s in GridSpec(0.01, 0.24, 15, "log").points():
                for order in (0, 1, 2):
                    t = eval_theta(fam, s, order)
                    d, r_d = direct(fam.kind, s, order, z=fam.z)
                    assert abs(t.value - d) <= t.error_bound + r_d, \
                        (fam, s, order)

    def test_general_is_direct(self):
        # Theta(z, is) runs the direct series from the cutoff up
        for order in (0, 1, 2):
            tv = eval_theta(general_family(0.3), 0.25, order)
            assert tv.method is EvalMethod.DIRECT


class TestSeriesStructure:
    def test_signs(self):
        for s in (0.3, 1.0, 4.0):
            assert eval_theta(THETA3, s, 1).value < 0.0
            assert eval_theta(THETA4, s, 1).value > 0.0
            assert eval_theta(THETA_ODD, s, 1).value < 0.0
            assert eval_theta(THETA3, s, 2).value > 0.0

    def test_parity_decomposition(self):
        # splitting the full series into even and odd index classes
        # forces theta3 - theta4 = 2 theta_odd, order by order
        for s in (0.05, 0.4, 1.0, 3.0):
            for order in (0, 1, 2):
                (t3, r3), (t4, r4), (to, ro) = (
                    direct(kind, s, order)
                    for kind in ("theta3", "theta4", "theta_odd"))
                lhs = t3 - t4
                tol = r3 + r4 + 2.0 * ro + ULP * abs(lhs)
                assert abs(lhs - 2.0 * to) <= tol + 1e-15 * abs(lhs)

    def test_general_specializes(self):
        for s in GridSpec(0.01, 50.0, 20, "log").points():
            t3, r3 = direct("theta3", s)
            g0 = eval_theta(general_family(0.0), s)
            assert abs(t3 - g0.value) <= r3 + g0.error_bound
            t4, r4 = direct("theta4", s)
            gh = eval_theta(general_family(0.5), s)
            assert abs(t4 - gh.value) <= r4 + gh.error_bound

    def test_general_z_periodic(self):
        # dyadic z so the mod-1 reduction is exact in binary
        a = eval_theta(general_family(0.25), 0.7)
        b = eval_theta(general_family(1.25), 0.7)
        c = eval_theta(general_family(-1.75), 0.7)
        assert a.value == b.value == c.value
        assert general_family(1.25).z == 0.25

    def test_error_bound_meets_target(self):
        # bound <= tol * max(1, |value|) over the whole routing range
        families = (THETA3, THETA4, THETA_ODD, general_family(0.3),
                    general_family(0.5))
        for fam in families:
            for order in (0, 1, 2):
                for s in GridSpec(1e-6, 1e4, 80, "log").points():
                    tv = eval_theta(fam, s, order)
                    assert tv.error_bound <= 1e-12 * max(1.0, abs(tv.value)), \
                        (fam, order, s, tv)

    def test_value_positive_families(self):
        for s in GridSpec(1e-4, 1e4, 30, "log").points():
            assert eval_theta(THETA3, s).value >= 1.0 - 1e-12
            vo = eval_theta(THETA_ODD, s).value
            v4 = eval_theta(THETA4, s).value
            # theta4 ~ 2 exp(-pi/(4s))/sqrt(s) underflows below s ~ 4e-4,
            # theta_odd ~ 2 exp(-pi s) above s ~ 237
            assert 0.0 <= v4 <= 1.0 + 1e-12
            assert vo >= 0.0
            if s >= 1e-2:
                assert v4 > 0.0
            if s <= 1e2:
                assert vo > 0.0


class TestTripleProduct:
    def test_matches_series(self):
        for s in GridSpec(0.1, 10.0, 30, "log").points():
            p = theta4_triple_product(s, 1e-14)
            d, r_d = direct("theta4", s)
            assert abs(p.value - d) <= p.error_bound + r_d
            assert p.method is EvalMethod.PRODUCT
            assert p.terms_used >= 1

    def test_small_s_cost_blows_up(self):
        with pytest.raises(ConvergenceError):
            theta4_triple_product(1e-6)
        # expensive but under the cap
        tv = theta4_triple_product(1e-4)
        d = eval_theta(THETA4, 1e-4)
        assert abs(tv.value - d.value) <= tv.error_bound + d.error_bound

    def test_relative_quality(self):
        tv = theta4_triple_product(1.0)
        assert abs(tv.value - ref.THETA4_AT_1) <= tv.error_bound

    @pytest.mark.parametrize("s", [1e-3, 1.05e-3, 1.1e-3, 1.2e-3, 1e-2])
    def test_contains_reference_below_normal_range(self, s):
        # theta4 drops below 2^-1022 near s = 1.1e-3, where rounding in
        # the product turns absolute
        mp = pytest.importorskip("mpmath")
        tv = theta4_triple_product(s)
        true = ref.theta_reference("theta4", s, 0)
        with mp.workdps(50):
            assert abs(mp.mpf(tv.value) - true) <= mp.mpf(tv.error_bound), tv


class TestResiduals:
    def test_jacobi(self):
        for s in (0.07, 0.5, 1.0, 3.0, 18.0):
            assert jacobi_identity_residual(s) < 1e-11

    def test_fact2(self):
        for s in (0.07, 0.5, 1.0, 3.0, 18.0):
            assert fact2_residual(s) < 1e-11

    def test_poisson(self):
        assert theta_odd_poisson_residual(1.0, 1.0) < 1e-12
        assert theta_odd_poisson_residual(2.0, 0.3) < 1e-12

    def test_residuals_at_rounding(self):
        # the points of acceptance criteria 01, 02 and 04: with truncation
        # below one ulp of each series' leading term, what is left of the
        # identity residuals is rounding
        worst = 0.0
        for s in GridSpec(0.05, 20.0, 100, "log").points():
            worst = max(worst, jacobi_identity_residual(s)
                        / eval_theta(THETA3, 1.0 / s).value,
                        fact2_residual(s))
        rng = random.Random(20260815)
        for _ in range(50):
            rs = math.exp(rng.uniform(math.log(0.2), math.log(10.0)))
            r = math.exp(rng.uniform(-1.0, 1.0))
            worst = max(worst, theta_odd_poisson_residual(r, rs / r))
        assert worst <= 1e-14

    def test_poisson_domain(self):
        with pytest.raises(DomainError):
            theta_odd_poisson_residual(0.0, 1.0)
        with pytest.raises(DomainError):
            theta_odd_poisson_residual(1.0, -2.0)


class TestDomainValidation:
    @pytest.mark.parametrize("s", [0.0, -1.0, 9e-7, 2e6, math.inf, math.nan])
    def test_bad_s(self, s):
        with pytest.raises(DomainError):
            eval_theta(THETA3, s)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 2.0, math.nan])
    def test_bad_tol(self, tol):
        # the triple product is the one public function taking a target
        with pytest.raises(DomainError, match="tol="):
            theta4_triple_product(1.0, tol)

    @pytest.mark.parametrize("tol", [math.nextafter(TOL_FLOOR, 0.0), 1e-300,
                                     5e-324])
    def test_tol_below_floor_runs_no_series(self, monkeypatch, tol):
        # the product's target is rejected up front: no factor, and no
        # series, computes an exp
        rec = _RecordedExp()
        monkeypatch.setattr(theta, "math", rec)
        with pytest.raises(DomainError, match="tol="):
            theta4_triple_product(1.0, tol)
        assert rec.args == []

    def test_every_route_stops_within_ten_terms(self):
        # each series stops within one ulp of its leading term's bound
        # weight, or at TOL_FLOOR where that weight underflows (theta_odd
        # at 1e6, theta4's reflection at 1e-6): every route over the
        # domain and at the cutoff certifies in a handful of terms
        pts = GridSpec(S_MIN, S_MAX, 241, "log").points() + [
            math.nextafter(SMALL_S_CUTOFF, 0.0), SMALL_S_CUTOFF,
            math.nextafter(SMALL_S_CUTOFF, 1.0)]
        for fam in (THETA3, THETA4, THETA_ODD, general_family(0.0),
                    general_family(0.3), general_family(0.5)):
            for order in (0, 1, 2):
                for s in pts:
                    tv = eval_theta(fam, s, order)
                    assert tv.terms_used <= 10, (fam, order, s, tv)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            eval_theta(THETA3, 1.0, 3)
        with pytest.raises(DomainError):
            eval_theta(THETA3, 1.0, -1)

    @pytest.mark.parametrize("order", [
        1.5, "1", None, [1], True, False, 2.0, 0.0, np.float64(1.0),
        np.float32(2.0), np.True_, np.int64(3)])
    def test_bad_order_type(self, order):
        # a bool or a float equals an int as a dict key, but is no order
        with pytest.raises(DomainError, match="derivative order"):
            eval_theta(THETA3, 1.0, order)

    @pytest.mark.parametrize("order,want", [
        (np.int32(1), 1), (np.int64(2), 2), (DerivativeOrder.VALUE, 0),
        (DerivativeOrder.FIRST, 1), (DerivativeOrder.SECOND, 2),
        (np.uint8(0), 0)])
    def test_int_like_orders(self, order, want):
        assert eval_theta(THETA3, 1.0, order) == eval_theta(THETA3, 1.0, want)

    @pytest.mark.parametrize("s", [True, False])
    def test_bool_argument_rejected(self, s):
        for call in (lambda: eval_theta(THETA3, s),
                     lambda: eval_theta(THETA4, s, 1),
                     lambda: theta4_triple_product(s),
                     lambda: log_deriv_ratio_bounds(THETA3, s)):
            with pytest.raises(DomainError, match=f"s={s}"):
                call()

    def test_bad_family(self):
        with pytest.raises(DomainError):
            eval_theta(ThetaFamily("theta5"), 1.0)
        with pytest.raises(DomainError):
            eval_theta("theta3", 1.0)
        with pytest.raises(DomainError):
            eval_theta(ThetaFamily("theta_general"), 1.0)  # z missing

    def test_bad_z(self):
        with pytest.raises(DomainError):
            general_family(math.inf)

    @pytest.mark.parametrize("kind,z", [("theta_general", math.nan),
                                        ("theta_general", math.inf),
                                        ("theta3", 0.3)])
    def test_family_rejects_bad_z(self, kind, z):
        # a non-finite z used to reach naive_theta as nan or a bare
        # ValueError; the one-variable families take no z
        with pytest.raises(DomainError):
            ThetaFamily(kind, z)

    def test_log_ratio_rejects_general(self):
        with pytest.raises(DomainError):
            log_deriv_ratio_bounds(general_family(0.3), 1.0)[0]

    @pytest.mark.parametrize("family", ["theta4", None, 4])
    def test_log_ratio_rejects_non_families(self, family):
        with pytest.raises(DomainError):
            log_deriv_ratio_bounds(family, 1.0)

    def test_log_ratio_takes_equal_family(self):
        # an equal family that is not the module constant
        family = ThetaFamily("theta4")
        assert family is not THETA4
        assert log_deriv_ratio_bounds(family, 0.7) == \
            log_deriv_ratio_bounds(THETA4, 0.7)

    @pytest.mark.parametrize("family,s", [(THETA4, 1e-3), (THETA4, 1e-6),
                                          (THETA_ODD, 300.0),
                                          (THETA_ODD, 1e6)])
    def test_log_ratio_rejects_underflowed_theta(self, family, s):
        # theta4 and theta_odd underflow to 0 here; the ratio used to be a
        # bare ZeroDivisionError
        with pytest.raises(DomainError, match=family.kind):
            log_deriv_ratio_bounds(family, s)

    @pytest.mark.parametrize("family,s,want", [
        (THETA4, 1.1e-3, math.pi / (4.0 * 1.1e-3) - 0.5),
        (THETA_ODD, 236.0, -math.pi * 236.0)])
    def test_log_ratio_near_underflow(self, family, s, want):
        # leading terms of g; the rest is below e^{-2 pi / s} resp.
        # e^{-8 pi s} relative. theta_odd(236) is subnormal, so its ball
        # is wide but still finite and containing
        g, err = log_deriv_ratio_bounds(family, s)
        assert math.isfinite(err)
        assert abs(g - want) <= err + 1e-12 * abs(want)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.sampled_from([0, 1, 2]))
def test_bound_structure_hypothesis(s, order):
    tv = eval_theta(THETA3, s, order)
    assert math.isfinite(tv.value)
    assert tv.error_bound >= 0.0
    assert tv.terms_used >= 1


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.3, max_value=8.0),
       st.floats(min_value=1.01, max_value=1.4))
def test_theta3_decreasing_theta4_increasing(s, factor):
    # stay below s ~ 11 where theta3 - 1 drops under one ulp of 1.0
    t = s * factor
    assert eval_theta(THETA3, s).value > eval_theta(THETA3, t).value
    assert eval_theta(THETA4, s).value < eval_theta(THETA4, t).value
