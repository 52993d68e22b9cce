"""Command-line interface.

Subcommands: eval (theta values), bounds (closed-form frame bounds),
sweep (beta tabulation to CSV/SVG), verify (inequality suites), oracle
(brute-force cross-check of the closed forms). Exit codes: 0 success,
1 computation/domain error, 2 usage error, 3 verification failure.
A --format json document is the command's arguments plus the fields of
the library's result record, with null for non-finite numbers.
"""

from __future__ import annotations

import argparse
import math
import sys
from enum import Enum

from .errors import ConvergenceError, DomainError, RangeError
from .theta import FAMILIES, ThetaFamily, eval_theta


def _add_format(p):
    p.add_argument("--format", choices=("human", "json"), default="human",
                   help="output format (default human)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaframe",
        description="Theta-function evaluation and Gaussian Gabor frame "
                    "bounds on separable lattices.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate a theta function")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--s", type=float, required=True,
                   help="argument s > 0")
    p.add_argument("--z", type=float, default=None,
                   help="first argument for theta_general")
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=0,
                   help="derivative order in s (default 0)")
    _add_format(p)

    p = sub.add_parser("bounds", help="closed-form frame bounds A, B")
    p.add_argument("--n", type=int, required=True,
                   help="integer redundancy n >= 1")
    p.add_argument("--beta", type=float, required=True)
    _add_format(p)

    p = sub.add_parser("sweep", help="tabulate bounds over a beta grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="grid points, 2 to 100000")
    p.add_argument("--log", action="store_true",
                   help="log-spaced grid (default linear)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--column", choices=("A", "B", "ratio"), default="ratio",
                   help="column to plot (default ratio)")

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (default)")
    _add_format(p)

    p = sub.add_parser("oracle", help="cross-check bounds against the "
                                      "brute-force double series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid", type=int, default=128,
                   help="grid steps per axis, 8 to 4096 (default 128)")
    _add_format(p)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and cross-validate argv; usage errors exit with code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "eval":
        if args.family == "theta_general" and args.z is None:
            parser.error("--z is required with --family theta_general")
        if args.family != "theta_general" and args.z is not None:
            parser.error("--z is only valid with --family theta_general")
    if args.subcommand in ("bounds", "sweep", "oracle") and args.n < 1:
        parser.error("--n must be >= 1")
    if args.subcommand == "sweep":
        if not 2 <= args.steps <= 100_000:
            parser.error("--steps must be from 2 to 100000")
        if not (args.beta_min < args.beta_max):
            parser.error("--beta-min must be less than --beta-max")
    if args.subcommand == "oracle" and not 8 <= args.grid <= 4096:
        parser.error("--grid must be from 8 to 4096")
    if args.subcommand == "verify":
        # checked here, not by argparse choices, which would import verify
        from .verify import SUITE_NAMES
        names = ("all", *SUITE_NAMES)
        if args.suite not in names:
            parser.error(f"argument --suite: invalid choice: {args.suite!r} "
                         f"(choose from {', '.join(map(repr, names))})")
    return args


def _json_ready(x):
    """JSON has no inf/nan, tuple or enum: those become null, list, value."""
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, (list, tuple)):
        return [_json_ready(v) for v in x]
    if isinstance(x, dict):
        return {k: _json_ready(v) for k, v in x.items()}
    return x


def _emit(obj):
    import json
    print(json.dumps(_json_ready(obj), sort_keys=True))


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def _cmd_eval(args) -> int:
    tv = eval_theta(ThetaFamily(args.family, args.z), args.s, args.order)
    if args.format == "json":
        _emit({"command": "eval", "family": args.family, "z": args.z,
               "s": args.s, "order": args.order, **tv._asdict()})
    else:
        print(f"value = {_fmt12(tv.value)} [error bound "
              f"{tv.error_bound:.3e}]")
        print(f"terms = {tv.terms_used}  method = {tv.method.value}")
    return 0


def _cmd_bounds(args) -> int:
    from .frame import LatticeParams, frame_bounds
    fb = frame_bounds(LatticeParams(args.n, args.beta))
    if args.format == "json":
        _emit({"command": "bounds", "n": args.n, "beta": args.beta,
               **fb._asdict()})
    else:
        print(f"lower = {_fmt12(fb.lower)} [error bound "
              f"{fb.error_bound:.3e}]")
        print(f"upper = {_fmt12(fb.upper)} [error bound "
              f"{fb.error_bound:.3e}]")
        print(f"ratio = {_fmt12(fb.ratio)}")
        print(f"valid = {'true' if fb.valid else 'false'}")
    return 0


def _cmd_sweep(args) -> int:
    from .grids import GridSpec
    from .sweep import emit_csv, emit_plot, sweep_beta
    scale = "log" if args.log else "linear"
    grid = GridSpec(args.beta_min, args.beta_max, args.steps, scale)
    rows = sweep_beta(args.n, grid)
    plot = ""
    if args.svg is not None:
        # emit_plot checks the rows before it opens a file, so a rejected
        # plot writes no CSV either
        emit_plot(rows, args.svg, args.column)
        plot = f" and plot to {args.svg}"
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}{plot}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import VerifyConfig, all_passed, run_all
    if args.suite == "all":
        config = VerifyConfig()
    else:
        config = VerifyConfig(suites=(args.suite,))
    results = run_all(config)
    ok = all_passed(results)
    if args.format == "json":
        _emit({"command": "verify", "all_passed": ok,
               "suites": [r._asdict() for r in results]})
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            flags = ""
            if r.informational:
                flags += " [informational]"
            if r.low_margin:
                flags += " [low margin]"
            print(f"{status} {r.name}: worst_residual="
                  f"{r.worst_residual:.6g} points={r.points_tested}"
                  f"{flags}")
        print("all checks passed" if ok else "some checks failed")
    return 0 if ok else 3


def _cmd_oracle(args) -> int:
    from .frame import LatticeParams, frame_bounds
    from .oracle import grid_extrema_F
    params = LatticeParams(args.n, args.beta)
    fb = frame_bounds(params)
    rep = grid_extrema_F(params, args.grid)
    diff_lower = abs(fb.lower - rep.min_value)
    diff_upper = abs(fb.upper - rep.max_value)
    if args.format == "json":
        _emit({
            "command": "oracle",
            "n": args.n,
            "beta": args.beta,
            "grid_steps": rep.grid_steps,
            "k_max": rep.truncation_K,
            "closed_lower": fb.lower,
            "closed_upper": fb.upper,
            "grid_min": rep.min_value,
            "grid_max": rep.max_value,
            "argmin": rep.argmin,
            "argmax": rep.argmax,
            "diff_lower": diff_lower,
            "diff_upper": diff_upper,
        })
    else:
        print(f"closed form: lower = {_fmt12(fb.lower)}  "
              f"upper = {_fmt12(fb.upper)}")
        print(f"grid search: min = {_fmt12(rep.min_value)} at "
              f"{rep.argmin}  max = {_fmt12(rep.max_value)} at "
              f"{rep.argmax}")
        print(f"differences: lower {diff_lower:.3e}  "
              f"upper {diff_upper:.3e}  (grid {rep.grid_steps}, "
              f"k_max {rep.truncation_K})")
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code) if exc.code is not None else 0
    try:
        return _DISPATCH[args.subcommand](args)
    except (DomainError, RangeError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())
