"""The public surface of thetaframe, pinned name by name.

Adding or removing a public name is then an explicit edit of this test.
Some names serve the benchmark harness rather than the paper:
lattice_params, frame_bounds_even / frame_bounds_odd and the
VerifyConfig.logconv_grid field stay because bench/ calls them.
test_bench_harness catches their loss only when bench/ is present.
"""

import thetaframe

PUBLIC_NAMES = (
    "CheckResult", "ConvergenceError", "DerivativeOrder", "DomainError",
    "EvalMethod", "ExtremaReport", "FrameBounds", "GridSpec",
    "LatticeParams", "OptimumReport", "RangeError", "SUITE_NAMES",
    "SweepRow", "THETA3", "THETA4", "THETA_ODD", "ThetaFamily",
    "ThetaValue", "VerifyConfig", "__version__", "all_passed", "auto_k_max",
    "check_lemma_odd_ratio", "check_logconvexity_general",
    "check_monotone_log_ratio", "check_odd_combination",
    "check_product_inequality", "check_refined_inequalities",
    "check_theta4_ratio_conjecture", "emit_csv", "emit_plot", "eval_theta",
    "find_optimal_beta", "frame_bounds", "frame_bounds_even",
    "frame_bounds_odd", "frame_bounds_via_F", "general_family",
    "grid_extrema_F", "janssen_F", "lattice_params", "log_deriv_ratio_bounds",
    "run_all", "sweep_beta", "theta4_triple_product",
)


def test_public_names_pinned():
    assert tuple(sorted(thetaframe.__all__)) == PUBLIC_NAMES
