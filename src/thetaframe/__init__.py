"""Theta-function evaluation with certified error bounds, sharp Gaussian
Gabor frame bounds on separable lattices, and numerical verification of
the underlying inequalities. The namespace is lazy (PEP 562): a name's
layer is imported on its first use, so `import thetaframe` loads none."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("ConvergenceError", "DomainError", "RangeError"),
    "grids": ("GridSpec",),
    "theta": ("DerivativeOrder", "EvalMethod", "ThetaFamily", "ThetaValue",
              "THETA3", "THETA4", "THETA_ODD", "general_family",
              "eval_theta", "theta4_triple_product",
              "log_deriv_ratio_bounds"),
    "frame": ("LatticeParams", "FrameBounds", "lattice_params",
              "frame_bounds", "frame_bounds_even", "frame_bounds_odd"),
    "oracle": ("ExtremaReport", "auto_k_max", "janssen_F",
               "grid_extrema_F", "frame_bounds_via_F"),
    "verify": ("CheckResult", "VerifyConfig", "SUITE_NAMES", "run_all",
               "all_passed"),
    "sweep": ("SweepRow", "OptimumReport", "sweep_beta", "find_optimal_beta",
              "emit_csv", "emit_plot"),
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name in ("ball", "cli", *_EXPORTS):
        return importlib.import_module(f".{name}", __name__)
    sub = _SOURCE.get(name)
    if sub is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bind all of the submodule's names: later lookups are plain dict hits
    mod = importlib.import_module(f".{sub}", __name__)
    globals().update((n, getattr(mod, n)) for n in _EXPORTS[sub])
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
