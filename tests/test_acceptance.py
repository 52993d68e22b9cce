"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line with the measured figure, then asserts. Criteria 5-9 share one
run of the verification suites via a module-scoped fixture.
"""

import json
import math
import random
import time

import pytest

import reference_values as ref
from identities import (direct, fact2_residual, jacobi_identity_residual,
                        theta_odd_poisson_residual)
from thetaframe import (THETA3, THETA4, THETA_ODD, eval_theta,
                        find_optimal_beta, frame_bounds, general_family,
                        grid_extrema_F, lattice_params, run_all,
                        theta4_triple_product)
from thetaframe.cli import main
from thetaframe.grids import GridSpec

LOG_PTS = GridSpec(0.05, 20.0, 100, "log").points()


def report(num, ok, desc, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} - {desc}: {detail}")
    return ok


@pytest.fixture(scope="module")
def suite_results():
    return {r.name: r for r in run_all()}


def suite_ok(results, names):
    return all(results[n].passed for n in names), max(
        results[n].worst_residual for n in names)


def test_criterion_01_jacobi_transform_identity():
    worst = 0.0
    for s in LOG_PTS:
        rel = jacobi_identity_residual(s) / eval_theta(THETA3, 1.0 / s).value
        worst = max(worst, rel)
    ok = worst < 1e-10
    assert report(1, ok, "sqrt-s transform identity, relative residual",
                  f"worst={worst:.3e} over {len(LOG_PTS)} points")


def test_criterion_02_log_ratio_reflection():
    worst = max(fact2_residual(s) for s in LOG_PTS)
    ok = worst < 1e-10
    assert report(2, ok, "log-derivative reflection identity residual",
                  f"worst={worst:.3e} over {len(LOG_PTS)} points")


def test_criterion_03_triple_product_agreement():
    worst = 0.0
    for s in GridSpec(0.1, 10.0, 100, "log").points():
        p = theta4_triple_product(s, 1e-16)
        d = direct("theta4", s)[0]
        worst = max(worst, abs(p.value - d) / abs(d))
    ok = worst < 1e-12
    assert report(3, ok, "triple product vs direct series, relative",
                  f"worst={worst:.3e} over 100 points")


def test_criterion_04_odd_poisson_residual():
    rng = random.Random(20260815)
    worst = 0.0
    for _ in range(50):
        rs = math.exp(rng.uniform(math.log(0.2), math.log(10.0)))
        r = math.exp(rng.uniform(-1.0, 1.0))
        worst = max(worst, theta_odd_poisson_residual(r, rs / r))
    ok = worst < 1e-12
    assert report(4, ok, "odd-series Poisson relation residual",
                  f"worst={worst:.3e} over 50 random (r, s)")


def test_criterion_05_monotone_suites(suite_results):
    ok, worst = suite_ok(suite_results, ("theta3-log-ratio-monotone",
                                         "theta4-log-ratio-monotone"))
    assert report(5, ok, "log-ratio monotonicity suites",
                  f"worst_residual={worst:.3e}")


def test_criterion_06_refined_suite(suite_results):
    ok, worst = suite_ok(suite_results,
                         ("refined-log-convexity-concavity",))
    assert report(6, ok, "refined convexity/concavity suite",
                  f"worst_residual={worst:.3e}")


def test_criterion_07_product_suites(suite_results):
    ok, worst = suite_ok(suite_results, ("theta3-product-minimum",
                                         "theta4-product-maximum"))
    assert report(7, ok, "product extremum suites",
                  f"worst_residual={worst:.3e}")


def test_criterion_08_odd_combination_suites(suite_results):
    ok, worst = suite_ok(suite_results, ("odd-combination-minimum",
                                         "odd-combination-maximum"))
    assert report(8, ok, "odd combination extremum suites",
                  f"worst_residual={worst:.3e}")


def test_criterion_09_odd_ratio_suite(suite_results):
    ok, worst = suite_ok(suite_results, ("odd-log-ratio",))
    assert report(9, ok, "odd log-ratio behavior suite",
                  f"worst_residual={worst:.3e}")


def test_criterion_10_optimizer_finds_square_lattice():
    windows = {2: (0.3, 1.5), 3: (0.3, 1.5), 4: (0.2, 1.2)}
    worst = 0.0
    for n, window in windows.items():
        rep = find_optimal_beta(n, window, 1e-6)
        worst = max(worst, abs(rep.beta_for_max_A - n ** -0.5),
                    abs(rep.beta_for_min_B - n ** -0.5))
    ratio_err = abs(
        frame_bounds(lattice_params(2, 2.0 ** -0.5)).ratio - ref.SQRT2)
    ok = worst <= 1e-4 and ratio_err < 1e-10
    assert report(10, ok, "optimal beta at 1/sqrt(n), ratio sqrt(2)",
                  f"worst_beta_err={worst:.3e} ratio_err={ratio_err:.3e}")


def test_criterion_11_oracle_grid_agrees():
    t0 = time.perf_counter()
    worst = 0.0
    corners_ok = True
    for n in (2, 3, 4):
        for beta in (0.4, n ** -0.5, 0.9):
            params = lattice_params(n, beta)
            fb = frame_bounds(params)
            rep = grid_extrema_F(params, grid_steps=128)
            worst = max(worst, abs(fb.lower - rep.min_value),
                        abs(fb.upper - rep.max_value))
            corners_ok &= rep.argmax == (0.0, 0.0)
            corners_ok &= rep.argmin == (0.5, 0.5)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and corners_ok and elapsed < 120.0
    assert report(11, ok, "brute-force grid vs closed forms",
                  f"worst_diff={worst:.3e} corners_ok={corners_ok} "
                  f"elapsed={elapsed:.2f}s")


def test_criterion_12_derivatives_match_finite_differences():
    rng = random.Random(42)
    families = [THETA3, THETA4, THETA_ODD, general_family(0.3)]
    worst = 0.0
    for fam in families:
        for _ in range(100):
            s = rng.uniform(0.1, 3.0)
            h = 1e-5 * max(1.0, s)
            for order in (1, 2):
                lo = eval_theta(fam, s - h, order - 1).value
                hi = eval_theta(fam, s + h, order - 1).value
                fd = (hi - lo) / (2.0 * h)
                got = eval_theta(fam, s, order).value
                worst = max(worst, abs(got - fd) / max(1e-30, abs(got)))
    ok = worst < 1e-6
    assert report(12, ok, "derivatives vs central differences, relative",
                  f"worst={worst:.3e} over 4 families x 100 points")


def test_criterion_13_cli_end_to_end(capsys, tmp_path):
    checks = []

    code = main(["eval", "--family", "theta3", "--s", "1.0"])
    out = capsys.readouterr().out
    checks.append(code == 0 and "1.0864348112" in out)

    code = main(["bounds", "--n", "2", "--beta", str(2.0 ** -0.5),
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    checks.append(code == 0 and doc["valid"] is True and
                  abs(doc["ratio"] - ref.SQRT2) < 1e-10)

    code = main(["eval", "--family", "theta3", "--s", "-1.0"])
    err = capsys.readouterr().err
    checks.append(code == 1 and err.startswith("error:"))

    code = main(["verify", "--suite", "theta3-log-ratio-monotone"])
    out = capsys.readouterr().out
    checks.append(code == 0 and "all checks passed" in out)

    blobs = []
    for i in (0, 1):
        dest = tmp_path / f"sweep{i}.csv"
        code = main(["sweep", "--n", "2", "--beta-min", "0.4",
                     "--beta-max", "1.4", "--steps", "11",
                     "--out", str(dest)])
        capsys.readouterr()
        checks.append(code == 0)
        blobs.append(dest.read_bytes())
    checks.append(blobs[0] == blobs[1])

    ok = all(checks)
    assert report(13, ok, "CLI exit codes, outputs, reproducible CSV",
                  f"{sum(checks)}/{len(checks)} subchecks")
