"""Span tracing for the traced benchmark run.

Tracer.install() wraps every public function of the layer modules
(thetaframe.theta, .frame, .oracle, .sweep, .verify, .cli) and rebinds each
name wherever a thetaframe module holds it, so calls between layers (for
example thetaframe.frame.eval_theta or thetaframe.sweep.frame_bounds) are
recorded too. Each call becomes one span (function, start, end, parent,
outermost-in-layer flag, tag) kept in compact arrays in memory; totals()
reduces the spans to additive sums and metrics() turns sums into the
per-layer metrics. Nothing under src/ is touched: the wrappers live here
and are removed by uninstall().
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("theta", "frame", "oracle", "sweep", "verify", "cli")
_BOUND_FNS = frozenset(("frame_bounds", "frame_bounds_even",
                        "frame_bounds_odd"))
_KERNELS = frozenset(("eval_theta", "theta4_triple_product"))


def _eval_args(family, s, order=0, tol=1e-12, *, force_direct=False):
    return family, float(s), int(order), float(tol), bool(force_direct)


def _product_args(s, tol=1e-12):
    return float(s), float(tol)


class Tracer:
    """Records spans of thetaframe's public functions while installed.

    With capture_theta, every ThetaValue that eval_theta returns is kept
    too (used to measure bound quality of values consumed internally).
    """

    def __init__(self, capture_theta: bool = False):
        self.names: list[tuple[str, str]] = []
        # span i: function names[fids[i]], [starts[i], ends[i]], parent span
        # parents[i] (-1 at top level), outers[i] when no span of the same
        # layer encloses it, tags.get(i) from the function's call hook
        self.fids = array("l")
        self.parents = array("l")
        self.outers = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.tags: dict = {}
        self.counts: defaultdict = defaultdict(int)
        self.keys: set = set()
        self.theta_values: list | None = [] if capture_theta else None
        self._stack: list[int] = []
        self._depth = dict.fromkeys(LAYERS, 0)    # open spans per layer
        self._active: dict = {}                   # open spans per function
        self._patched: list = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"thetaframe.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "thetaframe" and not modname.startswith(
                    "thetaframe."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append((layer, name))
        self._active[name] = 0
        fids, parents, outers = self.fids, self.parents, self.outers
        starts, ends, tags = self.starts, self.ends, self.tags
        stack = self._stack
        depth = self._depth
        active = self._active
        on_call = getattr(self, f"_call_{name}", None)
        on_result = getattr(self, f"_result_{name}", None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            outers.append(not depth[layer])
            starts.append(0.0)
            ends.append(0.0)
            if on_call is not None:
                tag = on_call(args, kwargs)
                if tag is not None:
                    tags[idx] = tag
            stack.append(idx)
            depth[layer] += 1
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name] -= 1
                depth[layer] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # -- per-function counters (called outside the wrapped span) ---------
    def _call_eval_theta(self, args, kwargs):
        family, s, order, tol, direct = _eval_args(*args, **kwargs)
        self.keys.add((family.kind, family.z, s, order, tol, direct))
        if self._depth["verify"]:
            self.counts["verify_theta_calls"] += 1
        return order

    def _result_eval_theta(self, args, kwargs, tv):
        self.counts["theta_terms"] += tv.terms_used
        self.counts["theta_evals"] += 1
        if tv.method.value == "modular-transform":
            self.counts["theta_transform"] += 1
        if self.theta_values is not None:
            self.theta_values.append((tv.value, tv.error_bound))

    def _call_theta4_triple_product(self, args, kwargs):
        self.keys.add(("product",) + _product_args(*args, **kwargs))
        if self._depth["verify"]:
            self.counts["verify_theta_calls"] += 1

    def _result_theta4_triple_product(self, args, kwargs, tv):
        self.counts["theta_terms"] += tv.terms_used

    def _call_frame_bounds(self, args, kwargs):
        active = self._active
        if (active["find_optimal_beta"] and not active["frame_bounds"]
                and not active["frame_bounds_even"]
                and not active["frame_bounds_odd"]):
            self.counts["optimize_frame_calls"] += 1

    _call_frame_bounds_even = _call_frame_bounds
    _call_frame_bounds_odd = _call_frame_bounds

    def _result_grid_extrema_F(self, args, kwargs, rep):
        g = rep.grid_steps
        k1 = rep.truncation_K + 1
        self.counts["grid_points"] += g * g
        self.counts["k_max_sum"] += rep.truncation_K
        # cos table, two matrix products, then argmax and argmin over f
        self.counts["flops"] += 2 * g * k1 * k1 + 2 * g * g * k1 + 2 * g * g
        self.counts["bytes"] += 8 * (2 * k1 * g + k1 * k1 + 3 * g * g)

    def _result_sweep_beta(self, args, kwargs, rows):
        self.counts["sweep_rows"] += len(rows)

    def _result_emit_csv(self, args, kwargs, _):
        dest = args[1] if len(args) > 1 else kwargs["destination"]
        self.counts["emit_bytes"] += os.path.getsize(dest)

    _result_emit_plot = _result_emit_csv

    def _call_run_all(self, args, kwargs):
        config = args[0] if args else kwargs.get("config")
        if config is not None and config.suites and len(config.suites) == 1:
            return config.suites[0]
        return None

    def _result_run_all(self, args, kwargs, results):
        self.counts["verify_points"] += sum(r.points_tested for r in results)

    # -- reduction ------------------------------------------------------
    def totals(self) -> dict:
        """Additive sums over all spans (safe to add across processes)."""
        n = len(self.fids)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out = Counter(self.counts)
        out["distinct_keys"] = len(self.keys)
        for i, fid in enumerate(self.fids):
            layer, name = self.names[fid]
            d = dur[i]
            out[f"{layer}.self_s"] += d - child[i]
            if self.outers[i]:
                out[f"{layer}.busy_s"] += d
            if name in _KERNELS:
                out["theta_calls"] += 1
            if name == "eval_theta" and self.tags.get(i) == 2:
                out["order2_busy_s"] += d
            elif name == "theta4_triple_product":
                out["product_busy_s"] += d
            elif name in _BOUND_FNS and self.outers[i]:
                out["frame_calls"] += 1
            elif name == "grid_extrema_F":
                out["grid_calls"] += 1
                out["grid_busy_s"] += d
            elif name == "find_optimal_beta":
                out["optimize_busy_s"] += d
            elif name in ("emit_csv", "emit_plot"):
                out["emit_busy_s"] += d
            elif name == "run_all" and i in self.tags:
                out[f"suite.{self.tags[i]}.busy_s"] += d
        return dict(out)

    def write_spans(self, path: str) -> None:
        """Write the spans as gzipped TSV: layer, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("layer\tname\tstart\tend\tparent\n")
            for i, fid in enumerate(self.fids):
                layer, name = self.names[fid]
                fh.write(f"{layer}\t{name}\t{self.starts[i]!r}\t"
                         f"{self.ends[i]!r}\t{self.parents[i]}\n")


def cli_child() -> None:
    """Entry point of a traced CLI child; argv is [totals_path, *cli_argv].

    Wraps the layers, runs thetaframe.cli.main on the CLI arguments and
    writes the span totals as JSON to totals_path.
    """
    import json
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from thetaframe import cli
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.totals(), fh)
    sys.exit(code)


def merge(parts) -> dict:
    """Sum totals() dictionaries from several tracers."""
    out = Counter()
    for part in parts:
        out.update(part)
    return dict(out)


def metrics(t: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from merged totals."""
    from thetaframe import SUITE_NAMES
    g = t.get

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "theta.calls": (g("theta_calls", 0), "count"),
        "theta.busy_s": (g("theta.busy_s", 0.0), "s"),
        "theta.self_s": (g("theta.self_s", 0.0), "s"),
        "theta.terms": (g("theta_terms", 0), "count"),
        "theta.order2_busy_s": (g("order2_busy_s", 0.0), "s"),
        "theta.product_busy_s": (g("product_busy_s", 0.0), "s"),
        "theta.transform_frac": (
            frac(g("theta_transform", 0), g("theta_evals", 0)), "frac"),
        "theta.distinct_frac": (
            frac(g("distinct_keys", 0), g("theta_calls", 0)), "frac"),
        "frame.calls": (g("frame_calls", 0), "count"),
        "frame.busy_s": (g("frame.busy_s", 0.0), "s"),
        "frame.self_s": (g("frame.self_s", 0.0), "s"),
        "oracle.grid_calls": (g("grid_calls", 0), "count"),
        "oracle.grid_busy_s": (g("grid_busy_s", 0.0), "s"),
        "oracle.grid_points": (g("grid_points", 0), "count"),
        "oracle.k_max_mean": (
            frac(g("k_max_sum", 0), g("grid_calls", 0)), "terms"),
        "oracle.flops_computed": (g("flops", 0), "flop"),
        "oracle.bytes_computed": (g("bytes", 0), "B"),
        "sweep.rows": (g("sweep_rows", 0), "count"),
        "sweep.busy_s": (g("sweep.busy_s", 0.0), "s"),
        "sweep.self_s": (g("sweep.self_s", 0.0), "s"),
        "sweep.optimize_busy_s": (g("optimize_busy_s", 0.0), "s"),
        "sweep.optimize_frame_calls": (g("optimize_frame_calls", 0), "count"),
        "sweep.emit_busy_s": (g("emit_busy_s", 0.0), "s"),
        "sweep.emit_bytes": (g("emit_bytes", 0), "B"),
    }
    for name in SUITE_NAMES:
        m[f"verify.{name}.busy_s"] = (g(f"suite.{name}.busy_s", 0.0), "s")
    m["verify.theta_calls_per_point"] = (
        frac(g("verify_theta_calls", 0), g("verify_points", 0)), "calls/pt")
    return m


def self_time_sum(t: dict) -> float:
    """Self time under any layer span (the part of op time tracing sees)."""
    return sum(t.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
