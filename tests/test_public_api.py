"""The public surface of thetaframe, pinned name by name.

Adding or removing a public name is then an explicit edit of this test.
Some names serve the benchmark harness rather than the paper:
lattice_params, frame_bounds_even / frame_bounds_odd and the
VerifyConfig.logconv_grid field stay because bench/ calls them.
test_bench_harness catches their loss only when bench/ is present.
"""

import importlib
import subprocess
import sys

import pytest

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



def test_bare_import_loads_no_layer():
    # the namespace is lazy: a fresh `import thetaframe` imports none of
    # its submodules, yet dir() lists every public name, and a submodule
    # attribute imports that submodule
    script = ("import sys, thetaframe\n"
              "print(sorted(m for m in sys.modules"
              " if m.startswith('thetaframe.')))\n"
              "print(set(thetaframe.__all__) <= set(dir(thetaframe)))\n"
              "print(thetaframe.grids is sys.modules['thetaframe.grids'])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["[]", "True", "True"]


def test_names_are_their_submodules_objects():
    for name in set(thetaframe.__all__) - {"__version__"}:
        module = importlib.import_module(
            f"thetaframe.{thetaframe._SOURCE[name]}")
        assert getattr(thetaframe, name) is vars(module)[name], name


def test_star_import_binds_all_names():
    namespace = {}
    exec("from thetaframe import *", namespace)
    assert set(thetaframe.__all__) <= namespace.keys()
    assert set(thetaframe.__all__) <= set(dir(thetaframe))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(thetaframe, "no_such_name")
    assert not hasattr(thetaframe, "eval_theta_fast")
