"""The public surface of thetaframe, pinned name by name and parameter
by parameter, and the one rule for its numeric arguments.

Adding or removing a public name, or a parameter of a public function or
record, is then an explicit edit of this test. Only
theta4_triple_product takes a truncation target: every other result
stops its series within one ulp of the leading term.
The verify suites have no public function of their own: each runs by its
name in SUITE_NAMES through run_all(VerifyConfig(...)), which also sets
its grid. Some names serve the benchmark harness rather than the paper:
lattice_params and the VerifyConfig.logconv_grid field stay because
bench/ calls them, and nothing in src/ calls lattice_params. bench/ never
calls frame_bounds_even / frame_bounds_odd, but bench/tracing.py's
frame_bounds hook reads their spans by name, so without them a traced
find_optimal_beta raises KeyError. test_bench_harness catches their loss
only when bench/ is present.
"""

import copy
import importlib
import inspect
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import thetaframe
from thetaframe import (THETA3, THETA4, CheckResult, DomainError, GridSpec,
                        LatticeParams, VerifyConfig, eval_theta,
                        find_optimal_beta, frame_bounds, general_family,
                        grid_extrema_F, janssen_F, log_deriv_ratio_bounds,
                        sweep_beta, theta4_triple_product)

PUBLIC_NAMES = (
    "CheckResult", "ConvergenceError", "DerivativeOrder", "DomainError",
    "EvalMethod", "ExtremaReport", "FrameBounds", "GridSpec",
    "LatticeParams", "OptimumReport", "RangeError", "SUITE_NAMES",
    "SweepRow", "THETA3", "THETA4", "THETA_ODD", "ThetaFamily",
    "ThetaValue", "VerifyConfig", "__version__", "all_passed", "auto_k_max",
    "emit_csv", "emit_plot", "eval_theta",
    "find_optimal_beta", "frame_bounds", "frame_bounds_even",
    "frame_bounds_odd", "frame_bounds_via_F", "general_family",
    "grid_extrema_F", "janssen_F", "lattice_params", "log_deriv_ratio_bounds",
    "run_all", "sweep_beta", "theta4_triple_product",
)


# public function or record -> its parameter names
PUBLIC_PARAMETERS = {
    "CheckResult": ("name", "passed", "worst_residual", "worst_location",
                    "points_tested", "low_margin", "informational"),
    "ExtremaReport": ("max_value", "argmax", "min_value", "argmin",
                      "grid_steps", "truncation_K"),
    "FrameBounds": ("lower", "upper", "ratio", "error_bound", "valid"),
    "GridSpec": ("min", "max", "steps", "scale"),
    "LatticeParams": ("n", "beta"),
    "OptimumReport": ("n", "beta_for_max_A", "max_A", "beta_for_min_B",
                      "min_B", "bracket_width", "error_bound"),
    "SweepRow": ("beta", "lower", "upper", "ratio"),
    "ThetaFamily": ("kind", "z"),
    "ThetaValue": ("value", "error_bound", "terms_used", "method"),
    "VerifyConfig": ("suites", "monotone_grid", "refined_grid",
                     "product_grid", "odd_ratio_grid", "logconv_grid",
                     "conjecture_grid"),
    "all_passed": ("results",),
    "auto_k_max": ("params",),
    "emit_csv": ("rows", "destination"),
    "emit_plot": ("rows", "destination", "which"),
    "eval_theta": ("family", "s", "order"),
    "find_optimal_beta": ("n", "beta_range", "resolution"),
    "frame_bounds": ("params",),
    "frame_bounds_even": ("n", "beta"),
    "frame_bounds_odd": ("n", "beta"),
    "frame_bounds_via_F": ("params", "grid_steps"),
    "general_family": ("z",),
    "grid_extrema_F": ("params", "grid_steps"),
    "janssen_F": ("x", "omega", "params"),
    "lattice_params": ("n", "beta"),
    "log_deriv_ratio_bounds": ("family", "s"),
    "run_all": ("config",),
    "sweep_beta": ("n", "grid"),
    "theta4_triple_product": ("s", "tol"),
}


def test_public_names_pinned():
    assert tuple(sorted(thetaframe.__all__)) == PUBLIC_NAMES


def test_public_parameters_pinned():
    # records are the tuple subclasses with _fields (named tuples)
    got = {name: tuple(inspect.signature(obj).parameters)
           for name in thetaframe.__all__
           if inspect.isfunction(obj := getattr(thetaframe, name))
           or isinstance(obj, type) and issubclass(obj, tuple)
           and hasattr(obj, "_fields")}
    assert got == PUBLIC_PARAMETERS


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


_TOL = 2.0 ** -40  # a tol that float32 and Fraction hold exactly
_P = LatticeParams(2, 0.75)

# every public numeric parameter: (call with it set to v, its plain value,
# integer or not); each plain value is exact in float32
_NUMERIC_ARGS = {
    "eval_theta.s": (lambda v: eval_theta(THETA3, v), 0.75, False),
    "eval_theta.order": (lambda v: eval_theta(THETA3, 0.75, v), 1, True),
    "theta4_triple_product.s": (theta4_triple_product, 1.5, False),
    "theta4_triple_product.tol": (
        lambda v: theta4_triple_product(1.5, v), _TOL, False),
    "log_deriv_ratio_bounds.s": (
        lambda v: log_deriv_ratio_bounds(THETA4, v), 2.0, False),
    "general_family.z": (general_family, 0.25, False),
    "LatticeParams.n": (
        lambda v: (p := LatticeParams(v, 0.5), frame_bounds(p)), 2, True),
    "LatticeParams.beta": (
        lambda v: (p := LatticeParams(2, v), frame_bounds(p)), 0.75, False),
    "GridSpec.min": (lambda v: (g := GridSpec(v, 1.5, 3), g.points()),
                     0.5, False),
    "GridSpec.max": (lambda v: (g := GridSpec(0.5, v, 3), g.points()),
                     1.5, False),
    "GridSpec.steps": (lambda v: (g := GridSpec(0.5, 1.5, v), g.points()),
                       3, True),
    "sweep_beta.n": (lambda v: sweep_beta(v, GridSpec(0.5, 1.0, 3)), 2, True),
    "find_optimal_beta.n": (
        lambda v: find_optimal_beta(v, (0.5, 1.0), 1e-3), 2, True),
    "find_optimal_beta.beta_range": (
        lambda v: find_optimal_beta(2, (v, 1.0), 1e-3), 0.5, False),
    "find_optimal_beta.resolution": (
        lambda v: find_optimal_beta(2, (0.5, 1.0), v), 2.0 ** -10, False),
    "janssen_F.x": (lambda v: janssen_F(v, 0.25, _P), 0.125, False),
    "janssen_F.omega": (lambda v: janssen_F(0.125, v, _P), 0.25, False),
    "grid_extrema_F.grid_steps": (lambda v: grid_extrema_F(_P, v), 16, True),
}


@pytest.mark.parametrize("name", _NUMERIC_ARGS)
def test_numeric_argument_rule(name):
    # one rule for every numeric argument: a real number, or an integer
    # where one is asked for, but never a bool, not even numpy's; any such
    # number gives the plain call's result to the bit, and the rest fail
    # with DomainError, not a TypeError or a value read from a bool
    call, plain, integral = _NUMERIC_ARGS[name]
    for bad in (True, np.True_, "1", None, 1j, Decimal(1)):
        with pytest.raises(DomainError):
            call(bad)
    want = repr(call(plain))
    good = [np.int64(plain), np.uint16(plain)] if integral else [
        np.float64(plain), np.float32(plain), Fraction(plain)]
    if not integral and plain == int(plain):
        good.append(np.int64(plain))
    for value in good:
        assert repr(call(value)) == want, value


# record -> (a call that makes one, and for a record that validates its
# fields a field and a value its checks reject)
_RECORDS = {
    "ThetaFamily": (lambda: general_family(-1e-20), ("kind", "theta5")),
    "ThetaValue": (lambda: eval_theta(THETA3, 0.75), None),
    "LatticeParams": (lambda: _P, ("beta", -1.0)),
    "FrameBounds": (lambda: frame_bounds(_P), None),
    "GridSpec": (lambda: GridSpec(0.5, 1.5, 3, "log"), ("steps", 1)),
    "SweepRow": (lambda: sweep_beta(2, GridSpec(0.5, 1.0, 2))[0], None),
    "OptimumReport": (lambda: find_optimal_beta(2, (0.5, 1.0), 1e-3), None),
    "ExtremaReport": (lambda: grid_extrema_F(_P, 8), None),
    "CheckResult": (lambda: CheckResult("x", True, 1.0, (0.5, 1.0), 2), None),
    "VerifyConfig": (lambda: VerifyConfig(suites=["odd-log-ratio"]),
                     ("suites", ["no-such-suite"])),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_validation_cannot_be_skipped(name):
    # pickle and copy rebuild a record through its constructor, so they
    # give back an equal record (general_family(-1e-20)'s z stays 0.0,
    # not 1.0); the constructor, _make and _replace all reject a bad
    # field with the same DomainError
    make, bad = _RECORDS[name]
    record = make()
    assert type(record) is getattr(thetaframe, name)
    assert name != "ThetaFamily" or record.z == 0.0
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(again) is type(record) and again == record
    if bad is None:
        return
    field, value = bad
    values = [value if f == field else v
              for f, v in zip(record._fields, record)]
    messages = []
    for build in (lambda: type(record)(*values),
                  lambda: type(record)._make(values),
                  lambda: record._replace(**{field: value})):
        with pytest.raises(DomainError) as info:
            build()
        messages.append(str(info.value))
    assert len(set(messages)) == 1, messages
