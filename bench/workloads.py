"""The benchmark's four workloads: input streams, operations and gates.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. Inputs come only from the seed. Dimensions
that decide an operation's cost or its bound quality (log s, beta windows)
are drawn from seeded low-discrepancy sequences frac(x0 + i * alpha), so
every stretch of a run covers its input range evenly and a run's mix of
cheap and costly operations does not depend on the seed's luck; the seed
moves x0 and every other choice.

A workload exposes:
  ops()               endless stream of operation specs
  execute(op, i)      one timed operation; returns its result or raises
  after(op, res, i)   untimed gates right after the operation; returns what
                      the final check needs to keep, or None
  check(kept)         untimed end-of-run gates (mpmath containment)
Gate outcomes and bound-quality samples collect in self.report. Quality is
sampled on a fixed prefix of the stream, so it depends on the seed and the
library only, never on how many operations a run completed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import thetaframe as tf
from probes import NUMPY_IMPORT_REF_S, numpy_import_seconds

FAMILIES = ("theta3", "theta4", "theta_odd", "theta_general")
_STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
          0.2360679774997898, 0.1622776601683795, 0.3166247903554)
_TINY = sys.float_info.min
_DIGITS_CLAMP = 30.0


def _lds(rng: random.Random, k: int):
    """Seeded Kronecker sequence in [0, 1) with the k-th irrational step."""
    x0 = rng.random()
    step = _STEPS[k]
    for i in itertools.count():
        yield (x0 + i * step) % 1.0


def _log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _family(kind: str, z: float | None):
    if kind == "theta_general":
        return tf.general_family(z)
    return {"theta3": tf.THETA3, "theta4": tf.THETA4,
            "theta_odd": tf.THETA_ODD}[kind]


def frame_beta_range(n: int) -> tuple[float, float]:
    """beta span whose theta arguments n^2 beta^2/2 and 1/(2 beta^2) stay in
    the advertised domain [1e-6, 1e6], down to beta = 1e-3."""
    return max(1e-3, 1.5e-3 / n), min(100.0, 1000.0 / n)


def _exact_bounds(n, beta):
    """Reference (A, B) at the exact theta arguments of (n, beta)."""
    import mpmath
    import reference as ref
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        return ref.frame_bounds(n, n * n * b * b / 2, 1 / (2 * b * b))


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Quality:
    """Bound-quality samples.

    A result is informative when it is valid, its value is a normal float
    and its error bound is below |value|; for informative results digits
    is -log10(error_bound / |value|), the number of certified digits.
    """

    informative: list = field(default_factory=list)
    digits: list = field(default_factory=list)

    def add(self, value: float, bound: float, valid: bool = True) -> None:
        mag = abs(value)
        informative = valid and mag >= _TINY and bound < mag
        self.informative.append(informative)
        if informative:
            self.digits.append(min(_DIGITS_CLAMP, -math.log10(bound / mag))
                               if bound > 0.0 else _DIGITS_CLAMP)

    def add_theta(self, tv) -> None:
        self.add(tv.value, tv.error_bound)

    def add_frame(self, fb) -> None:
        self.add(fb.lower, fb.error_bound, fb.valid)


@dataclass
class CheckReport:
    """Outcome of a workload's gates; failures name the op index."""

    checked: int = 0
    contained: int = 0
    missed: int = 0
    underflowed: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    quality: Quality = field(default_factory=Quality)

    def containment(self, value, bound, ref, what) -> None:
        from reference import contains, underflowed
        self.checked += 1
        if contains(value, bound, ref):
            self.contained += 1
        elif underflowed(value, ref):
            self.underflowed += 1
        else:
            self.missed += 1
            self.failures.append(f"containment miss: {what}: "
                                 f"{value!r} +/- {bound!r}")

    def fail(self, msg: str) -> None:
        self.failures.append(msg)


def _overlap(a, ea, b, eb) -> bool:
    if abs(a) < _TINY and abs(b) < _TINY:
        return True
    return abs(a - b) <= ea + eb


class Workload:
    name = ""
    nominal_ops_per_s = 1.0   # sizes the traced run: about s/4 per pass
    slice_ops = 1             # ops between two calibrations
    cal_ref_s = 0.008         # calibrate() on the reference host
    tail_pct = 90.0           # leaves 20+ ops beyond it in a 20 s run
    warm_ops = 1
    child_totals: list | tuple = ()   # span totals from traced children

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.report = CheckReport()

    def after(self, op, result, i):
        return None

    def check(self, kept) -> None:
        pass

    def op_failed(self, result) -> bool:
        return isinstance(result, BaseException)

    def set_traced(self, on: bool) -> None:
        """Switch tracing in child processes (only the CLI has any)."""

    def calibrate(self) -> float:
        """Seconds a fixed pure-Python loop takes now: the host's speed.

        On a shared host the same work takes up to 1.5x longer from one
        minute to the next; timing this between slices of ops lets each
        slice be rescaled to a host of fixed speed.
        """
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        return time.perf_counter() - t0

    def warm_up(self) -> None:
        for i, op in enumerate(itertools.islice(self.ops(), self.warm_ops)):
            self.execute(op, i)

    def _pick(self, i: int, stride: int, cap: int) -> bool:
        """Seeded 1-in-stride sample of op indices, at most cap of them."""
        return i % stride == self.seed % stride and i // stride < cap


# ---------------------------------------------------------------------------
class Pointwise(Workload):
    name = "pointwise"
    nominal_ops_per_s = 6000.0
    slice_ops = 2400
    tail_pct = 99.9
    warm_ops = 64
    QUALITY_OPS = 20000
    CHECK_STRIDE = 97          # prime, so picks rotate through op kinds
    CHECK_CAP = 500

    def ops(self):
        rng = random.Random(self.seed)
        u_s, u_p, u_b = _lds(rng, 0), _lds(rng, 1), _lds(rng, 2)
        e = f = 0
        for j in itertools.count():
            slot = j % 8
            if slot < 6:
                cls = e % 12
                e += 1
                kind = FAMILIES[cls % 4]
                z = rng.random() if kind == "theta_general" else None
                yield ("eval", kind, cls // 4, 10.0 ** (-6 + 12 * next(u_s)),
                       z)
            elif slot == 6:
                # the product's cost grows like 1/s and it exceeds its
                # term cap below s ~ 4e-6, so it is drawn from [1e-3, 1e6]
                yield ("product", 10.0 ** (-3 + 9 * next(u_p)))
            else:
                n = 1 + f % 8
                f += 1
                lo, hi = frame_beta_range(n)
                yield ("bounds", n, _log_between(lo, hi, next(u_b)))

    def execute(self, op, i):
        if op[0] == "eval":
            return tf.eval_theta(_family(op[1], op[4]), op[3], op[2])
        if op[0] == "product":
            return tf.theta4_triple_product(op[1])
        return tf.frame_bounds(tf.lattice_params(op[1], op[2]))

    def after(self, op, res, i):
        if i < self.QUALITY_OPS:
            if op[0] == "bounds":
                self.report.quality.add_frame(res)
            else:
                self.report.quality.add_theta(res)
        keep = self._pick(i, self.CHECK_STRIDE, self.CHECK_CAP)
        return res if keep else None

    def check(self, kept) -> None:
        import reference as ref
        rep = self.report
        cross = 0
        for i, op, res in kept:
            if op[0] == "bounds":
                n, beta = op[1], op[2]
                a_ref, b_ref = _exact_bounds(n, beta)
                rep.containment(res.lower, res.error_bound, a_ref,
                                f"op {i} A(n={n}, beta={beta!r})")
                rep.containment(res.upper, res.error_bound, b_ref,
                                f"op {i} B(n={n}, beta={beta!r})")
                continue
            if op[0] == "product":
                kind, order, s, z = "theta4", 0, op[1], None
            else:
                kind, order, s = op[1], op[2], op[3]
                z = _family(kind, op[4]).z
            rep.containment(res.value, res.error_bound,
                            ref.theta(kind, s, order, z),
                            f"op {i} {op[0]} {kind}^({order})({s!r})")
            # theta4 has two independent evaluators: their intervals meet
            if kind == "theta4" and order == 0 and s >= 1e-3:
                other = (tf.eval_theta(tf.THETA4, s) if op[0] == "product"
                         else tf.theta4_triple_product(s))
                cross += 1
                if not _overlap(res.value, res.error_bound, other.value,
                                other.error_bound):
                    rep.fail(f"op {i}: theta4({s!r}) series and triple "
                             "product intervals are disjoint")
        rep.notes.append(
            f"mpmath containment on every {self.CHECK_STRIDE}th op "
            f"({len(kept)} ops), {cross} triple-product cross-checks; "
            f"quality over the first {self.QUALITY_OPS} ops")


# ---------------------------------------------------------------------------
class Lattice(Workload):
    name = "lattice"
    nominal_ops_per_s = 70.0
    slice_ops = 48             # n cycles by 8, grid size by 3, column by 2
    tail_pct = 95.0
    warm_ops = 3               # one op per grid size
    EMIT_STRIDE = 4
    ROWS = 96
    GRIDS = (256, 512, 1024)
    RESOLUTION = 1e-6
    QUALITY_OPS = 200
    ROW_QUALITY_OPS = 160
    CHECK_STRIDE = 7
    CHECK_CAP = 60

    def ops(self):
        rng = random.Random(self.seed)
        u = [_lds(rng, k) for k in range(5)]
        for j in itertools.count():
            n = 1 + j % 8
            r = 1.0 / math.sqrt(n)
            # sweep windows reach far off the square lattice (eccentric
            # beta, where theta4 underflows); the optimizer window brackets
            # 1/sqrt(n); the oracle cross-check stays within a decade of it
            yield (n,
                   r * 10.0 ** -(0.3 + 1.9 * next(u[0])),
                   r * 10.0 ** (0.3 + 1.2 * next(u[1])),
                   r * 10.0 ** -(0.1 + 0.4 * next(u[2])),
                   r * 10.0 ** (0.1 + 0.4 * next(u[3])),
                   self.GRIDS[j % 3],
                   r * 10.0 ** (-0.5 + next(u[4])),
                   ("A", "B")[j % 2])

    def _paths(self, tag):
        return self.workdir / f"{tag}.csv", self.workdir / f"{tag}.svg"

    def execute(self, op, i):
        n, lo, hi, olo, ohi, grid, bx, column = op
        rows = tf.sweep_beta(n, tf.GridSpec(lo, hi, self.ROWS, "log"))
        # at n = 1 (critical density) A vanishes identically, so there is
        # no A maximum to locate and the search would chase rounding noise
        opt = (tf.find_optimal_beta(n, (olo, ohi), self.RESOLUTION)
               if n > 1 else None)
        csv, svg = self._paths("op")
        tf.emit_csv(rows, csv)
        tf.emit_plot(rows, svg, column)
        params = tf.lattice_params(n, bx)
        return rows, opt, tf.frame_bounds(params), tf.frame_bounds_via_F(
            params, grid)

    def after(self, op, res, i):
        rep = self.report
        rows, opt, closed, via = res
        n, bx, column = op[0], op[6], op[7]
        root = 1.0 / math.sqrt(n)
        optima = () if opt is None else (("A max", opt.beta_for_max_A),
                                         ("B min", opt.beta_for_min_B))
        for which, beta in optima:
            if abs(beta - root) > opt.bracket_width:
                rep.fail(f"op {i}: {which} at {beta!r} is outside the "
                         f"bracket of 1/sqrt({n})")
        tol = closed.error_bound + via.error_bound
        if (abs(closed.lower - via.lower) > tol
                or abs(closed.upper - via.upper) > tol):
            rep.fail(f"op {i}: closed form and oracle extrema disagree "
                     f"beyond their bounds at n={n}, beta={bx!r}")
        if i % self.EMIT_STRIDE == 0:
            csv, svg = self._paths("check")
            tf.emit_csv(rows, csv)
            tf.emit_plot(rows, svg, column)
            if (_sha(csv), _sha(svg)) != tuple(map(_sha, self._paths("op"))):
                rep.fail(f"op {i}: emitting the same rows twice gave "
                         "different CSV/SVG bytes")
        if i < self.QUALITY_OPS:
            rep.quality.add_frame(closed)
        if i < self.ROW_QUALITY_OPS:
            for row in rows:
                fb = tf.frame_bounds(tf.lattice_params(n, row.beta))
                if (fb.lower, fb.upper) != (row.lower, row.upper):
                    rep.fail(f"op {i}: sweep row at beta={row.beta!r} "
                             "is not reproducible")
                rep.quality.add_frame(fb)
        if self._pick(i, self.CHECK_STRIDE, self.CHECK_CAP):
            return closed
        return None

    def check(self, kept) -> None:
        for i, op, closed in kept:
            n, bx = op[0], op[6]
            a_ref, b_ref = _exact_bounds(n, bx)
            self.report.containment(closed.lower, closed.error_bound, a_ref,
                                    f"op {i} A(n={n}, beta={bx!r})")
            self.report.containment(closed.upper, closed.error_bound, b_ref,
                                    f"op {i} B(n={n}, beta={bx!r})")
        self.report.notes.append(
            f"optimizer and oracle gates on every op, byte gate on every "
            f"{self.EMIT_STRIDE}th; mpmath "
            f"containment on every {self.CHECK_STRIDE}th ({len(kept)} ops); "
            f"quality over the first {self.QUALITY_OPS} ops and the sweep "
            f"rows of the first {self.ROW_QUALITY_OPS}")


# ---------------------------------------------------------------------------
class Verify(Workload):
    name = "verify"
    nominal_ops_per_s = 55.0
    slice_ops = 20             # two passes over the ten suites
    tail_pct = 98.0
    warm_ops = 10

    def ops(self):
        rng = random.Random(self.seed)

        def f(lo=0.8, hi=1.25):
            return _log_between(lo, hi, rng.random())

        def grid(lo, hi, steps, scale="log"):
            return tf.GridSpec(lo * f(), hi * f(),
                               int(steps * f(0.8, 1.2)), scale)

        for j in itertools.count():
            t = 3.0 * f()
            config = tf.VerifyConfig(
                suites=(tf.SUITE_NAMES[j % len(tf.SUITE_NAMES)],),
                monotone_grid=grid(0.05, 20.0, 1000),
                refined_grid=grid(0.05, 10.0, 500),
                # product grids stay symmetric about s = 1 with a center
                product_grid=tf.GridSpec(1.0 / t, t,
                                         2 * int(150 * f(0.8, 1.2)) + 1,
                                         "log"),
                odd_ratio_grid=tf.GridSpec(1e-3 * f(0.5, 1.0),
                                           10.0 * f(1.0, 1.25),
                                           int(1250 * f(0.8, 1.2)), "log"),
                logconv_grid=grid(0.1, 10.0, 200),
                conjecture_grid=grid(0.5, 5.0, 200, "linear"),
            )
            yield config.suites[0], config

    def execute(self, op, i):
        return tf.run_all(op[1])

    def after(self, op, res, i):
        # every suite, the informational conjecture included, passes on the
        # default grids; the seeded grids stay inside each suite's valid span
        if len(res) != 1 or res[0].name != op[0]:
            self.report.fail(f"op {i}: ran {[r.name for r in res]} "
                             f"instead of {op[0]}")
        elif not res[0].passed:
            self.report.fail(f"op {i}: suite {op[0]} failed, worst residual "
                             f"{res[0].worst_residual!r} at "
                             f"{res[0].worst_location!r}")
        return res if i < len(tf.SUITE_NAMES) else None

    def check(self, kept) -> None:
        # bound quality of the theta values the suites consume: replay the
        # first pass over the suites and keep every value eval_theta returns
        from tracing import Tracer
        tracer = Tracer(capture_theta=True)
        with tracer:
            again = [(i, res, tf.run_all(op[1])) for i, op, res in kept]
        for i, res, res2 in again:
            if res2 != res:
                self.report.fail(f"op {i}: suite {res[0].name} is not "
                                 "reproducible")
        for value, bound in tracer.theta_values:
            self.report.quality.add(value, bound)
        self.report.notes.append(
            f"verdicts gated on every op; quality over "
            f"{len(tracer.theta_values)} theta values from a replay of the "
            f"first {len(kept)} ops")


# ---------------------------------------------------------------------------
class Cli(Workload):
    name = "cli"
    nominal_ops_per_s = 5.0
    slice_ops = 8              # two passes over the four commands
    cal_ref_s = NUMPY_IMPORT_REF_S
    tail_pct = 80.0
    ORACLE_GRID = 128
    SWEEP_STEPS = 21
    QUALITY_OPS = 2000

    def __init__(self, seed, workdir, env=None):
        super().__init__(seed, workdir)
        self.env = env
        self.child_rss_kb = 0
        self.child_totals = []
        self._totals_path = workdir / "child-totals.json"
        self._plain = [sys.executable, "-m", "thetaframe"]
        self._prefix = self._plain
        self._validator = None

    def set_traced(self, on: bool) -> None:
        """Run later ops in children that wrap thetaframe's layers in spans;
        each child's span totals are appended to child_totals."""
        self._prefix = self._plain if not on else [
            sys.executable, "-c",
            "import sys; sys.path.insert(0, {!r}); "
            "import tracing; tracing.cli_child()".format(
                str(Path(__file__).resolve().parent)),
            str(self._totals_path)]

    def op_failed(self, result) -> bool:
        return isinstance(result, BaseException) or result[0] != 0

    def calibrate(self) -> float:
        return numpy_import_seconds(self.env)

    def ops(self):
        rng = random.Random(self.seed)
        u_s, u_b, u_o, u_w = (_lds(rng, k) for k in range(4))
        e = 0
        for j in itertools.count():
            kind = ("eval", "bounds", "oracle", "sweep")[j % 4]
            n = 1 + (j // 4) % 8
            root = 1.0 / math.sqrt(n)
            if kind == "eval":
                fam = FAMILIES[e % 4]
                order = (e // 4) % 3
                e += 1
                argv = ["eval", "--family", fam, "--order", str(order),
                        "--s", repr(10.0 ** (-6 + 12 * next(u_s)))]
                if fam == "theta_general":
                    argv += ["--z", repr(rng.random())]
            elif kind == "bounds":
                lo, hi = frame_beta_range(n)
                argv = ["bounds", "--n", str(n), "--beta",
                        repr(_log_between(lo, hi, next(u_b)))]
            elif kind == "oracle":
                argv = ["oracle", "--n", str(n), "--beta",
                        repr(root * 10.0 ** (-0.5 + next(u_o))),
                        "--grid", str(self.ORACLE_GRID)]
            else:
                w = 10.0 ** (0.2 + 0.5 * next(u_w))
                # the ratio column is infinite at n = 1, where A = 0
                yield ["sweep", "--n", str(n), "--beta-min", repr(root / w),
                       "--beta-max", repr(root * w),
                       "--steps", str(self.SWEEP_STEPS),
                       "--column", ("A", "B")[(j // 4) % 2], "--log"]
                continue
            yield argv + ["--format", "json"]

    def execute(self, op, i):
        argv = list(op)
        if op[0] == "sweep":
            csv, svg = self._paths("op")
            argv += ["--out", str(csv), "--svg", str(svg)]
        proc = subprocess.Popen(self._prefix + argv, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if self._prefix is not self._plain and self._totals_path.exists():
            with open(self._totals_path, encoding="utf-8") as fh:
                self.child_totals.append(json.load(fh))
            self._totals_path.unlink()
        return proc.returncode, out.decode(), err.decode()

    def _paths(self, tag):
        return self.workdir / f"cli-{tag}.csv", self.workdir / f"cli-{tag}.svg"

    def after(self, op, res, i):
        import jsonschema
        rep = self.report
        code, out, err = res
        what = f"op {i} `{' '.join(op)}`"
        if code != 0:
            rep.fail(f"{what}: exit {code}: {err.strip()[-300:]}")
            return None
        if op[0] == "sweep":
            args = _options(op)
            rows = tf.sweep_beta(int(args["--n"]), tf.GridSpec(
                float(args["--beta-min"]), float(args["--beta-max"]),
                int(args["--steps"]), "log"))
            csv, svg = self._paths("check")
            tf.emit_csv(rows, csv)
            tf.emit_plot(rows, svg, args["--column"])
            if (_sha(csv), _sha(svg)) != tuple(map(_sha, self._paths("op"))):
                rep.fail(f"{what}: CSV/SVG differ from the library's")
            return None
        if self._validator is None:
            schema = (Path(tf.__file__).parent / "schemas"
                      / "cli_output.schema.json")
            with open(schema, encoding="utf-8") as fh:
                self._validator = jsonschema.Draft202012Validator(
                    json.load(fh))
        try:
            doc = json.loads(out.strip().splitlines()[-1])
            self._validator.validate(doc)
        except (ValueError, IndexError, jsonschema.ValidationError) as exc:
            rep.fail(f"{what}: output fails the schema: {exc}")
            return None
        self._check_doc(op, doc, what)
        return None

    def _check_doc(self, op, doc, what) -> None:
        import reference as ref
        rep = self.report
        if doc["command"] == "eval":
            tv = _in_process(op)
            if (doc["value"], doc["error_bound"]) != (tv.value,
                                                      tv.error_bound):
                rep.fail(f"{what}: printed value differs from the library's")
            rep.containment(doc["value"], doc["error_bound"],
                            ref.theta(doc["family"], doc["s"], doc["order"],
                                      _family(doc["family"], doc["z"]).z),
                            what)
        elif doc["command"] == "bounds":
            fb = _in_process(op)
            if (doc["lower"], doc["upper"], doc["error_bound"]) != (
                    fb.lower, fb.upper, fb.error_bound):
                rep.fail(f"{what}: printed bounds differ from the library's")
            a_ref, b_ref = _exact_bounds(doc["n"], doc["beta"])
            rep.containment(doc["lower"], doc["error_bound"], a_ref, what)
            rep.containment(doc["upper"], doc["error_bound"], b_ref, what)
        else:
            params = tf.lattice_params(doc["n"], doc["beta"])
            closed = tf.frame_bounds(params)
            via = tf.frame_bounds_via_F(params, doc["grid_steps"])
            tol = closed.error_bound + via.error_bound
            if (doc["closed_lower"], doc["closed_upper"]) != (closed.lower,
                                                              closed.upper):
                rep.fail(f"{what}: closed form differs from the library's")
            if doc["diff_lower"] > tol or doc["diff_upper"] > tol:
                rep.fail(f"{what}: oracle extrema miss the closed form by "
                         "more than both bounds")

    def check(self, kept) -> None:
        # the CLI prints exactly what the library returns (gated per op), so
        # bound quality is taken in-process over a fixed prefix of the stream
        for op in itertools.islice(self.ops(), self.QUALITY_OPS):
            if op[0] == "eval":
                self.report.quality.add_theta(_in_process(op))
            elif op[0] == "bounds":
                self.report.quality.add_frame(_in_process(op))
        self.report.notes.append(
            f"exit code, schema, values and bytes gated on every command; "
            f"quality over the first {self.QUALITY_OPS} ops, in-process")


def _options(argv) -> dict:
    """--name value pairs of a CLI argv; bare flags map to True."""
    out = {}
    for k, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else None
            out[tok] = True if nxt is None or nxt.startswith("--") else nxt
    return out


def _in_process(op):
    """The library's result for an eval or bounds command."""
    a = _options(op)
    if op[0] == "eval":
        z = float(a["--z"]) if "--z" in a else None
        return tf.eval_theta(_family(a["--family"], z), float(a["--s"]),
                             int(a["--order"]))
    return tf.frame_bounds(tf.lattice_params(int(a["--n"]),
                                             float(a["--beta"])))


WORKLOADS = {w.name: w for w in (Pointwise, Lattice, Verify, Cli)}
