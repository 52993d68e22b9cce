"""Theta-function evaluation with certified error bounds, sharp Gaussian
Gabor frame bounds on separable lattices, and numerical verification of
the underlying inequalities."""

from .errors import ConvergenceError, DomainError, RangeError
from .frame import (FrameBounds, LatticeParams, frame_bounds,
                    frame_bounds_even, frame_bounds_odd, lattice_params)
from .grids import GridSpec
from .oracle import (ExtremaReport, auto_k_max, frame_bounds_via_F,
                     grid_extrema_F, janssen_F)
from .sweep import (OptimumReport, SweepRow, emit_csv, emit_plot,
                    find_optimal_beta, sweep_beta)
from .theta import (THETA3, THETA4, THETA_ODD, DerivativeOrder, EvalMethod,
                    ThetaFamily, ThetaValue, eval_theta, general_family,
                    log_deriv_ratio_bounds, theta4_triple_product)
from .verify import (SUITE_NAMES, CheckResult, VerifyConfig, all_passed,
                     check_lemma_odd_ratio, check_logconvexity_general,
                     check_monotone_log_ratio, check_odd_combination,
                     check_product_inequality,
                     check_refined_inequalities,
                     check_theta4_ratio_conjecture, run_all)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DomainError", "RangeError",
    "GridSpec",
    "DerivativeOrder", "EvalMethod", "ThetaFamily", "ThetaValue",
    "THETA3", "THETA4", "THETA_ODD", "general_family",
    "eval_theta", "theta4_triple_product", "log_deriv_ratio_bounds",
    "LatticeParams", "FrameBounds", "lattice_params",
    "frame_bounds", "frame_bounds_even", "frame_bounds_odd",
    "ExtremaReport", "auto_k_max", "janssen_F",
    "grid_extrema_F", "frame_bounds_via_F",
    "CheckResult", "VerifyConfig", "SUITE_NAMES", "run_all", "all_passed",
    "check_monotone_log_ratio", "check_refined_inequalities",
    "check_product_inequality", "check_odd_combination",
    "check_lemma_odd_ratio", "check_logconvexity_general",
    "check_theta4_ratio_conjecture",
    "SweepRow", "OptimumReport", "sweep_beta", "find_optimal_beta",
    "emit_csv", "emit_plot",
    "__version__",
]
