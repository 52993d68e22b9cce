"""thetaframe benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload pointwise --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
./src, never from an installed copy. With --trace 0 the run is untimed
set-up probes, an untimed warm-up, a timed closed loop until the ops' own
time reaches --seconds, then untimed correctness gates; the last stdout
line carries the end-to-end metrics. Op times are rescaled by a
calibration timed between slices of ops (Workload.calibrate); the
unscaled figures are printed above the result; set-up probes are
rescaled by a fresh numpy import. With --trace 1 a fixed
number of operations (sized to about --seconds/4 per pass) runs once plain
and once with every public function of thetaframe's layers wrapped in
spans; the last line carries the per-layer metrics and the tracing
overhead. Workloads and metrics are listed in BENCHMARK.json; smoke.py
checks the output shape.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import probes
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
CLI_PROBES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("pointwise", "lattice", "verify", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "thetaframe").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(seed) -> dict:
    import numpy as np
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset (library default)"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _setup_seconds(workload, seed, env):
    """Fresh interpreters that import thetaframe and finish the warm-up.

    Each probe follows a fresh `python -c "import numpy"`, and its wall time
    is rescaled by that import to the reference host: start-up time drifts
    with the host together with the numpy import, not with CPU speed.
    Returns the rescaled probe times, the unscaled ones and the imports'.
    """
    code = ("import sys; sys.path[:0] = [{!r}, {!r}]; import workloads; "
            "from pathlib import Path; "
            "workloads.WORKLOADS[{!r}]({}, Path({!r})).warm_up()")
    scaled, raw, cals = [], [], []
    for k in range(SETUP_PROBES):
        workdir = WORK / f"probe-{os.getpid()}-{k}"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, "-c", code.format(
            str(SRC), str(BENCH), workload, seed, str(workdir))]
        cals.append(probes.numpy_import_seconds(env))
        raw.append(probes.wall_seconds(cmd, env))
        scaled.append(raw[-1] * probes.NUMPY_IMPORT_REF_S / cals[-1])
        shutil.rmtree(workdir)
    return scaled, raw, cals


def _run_ops(wl, ops, budget=None, gates=True, slice_ops=None):
    """Closed loop over ops until their summed time reaches budget seconds.

    Returns per-op times, (index, exception) pairs for ops that raised,
    (index, op, kept) triples from the untimed gates when gates is set, and
    calibration times taken before the first op and after every slice of
    slice_ops ops (and after a final partial slice).
    """
    times, errors, kept, cals = array("d"), [], [], []
    clock = time.perf_counter
    busy = 0.0
    if slice_ops:
        cals.append(wl.calibrate())
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            res = wl.execute(op, i)
        except Exception as exc:   # a failed op is counted, not fatal
            res = exc
        dt = clock() - t0
        times.append(dt)
        busy += dt
        if isinstance(res, BaseException):
            errors.append((i, res))
        elif gates:
            keep = wl.after(op, res, i)
            if keep is not None:
                kept.append((i, op, keep))
        elif wl.op_failed(res):
            errors.append((i, res))
        done = budget is not None and busy >= budget
        if slice_ops and ((i + 1) % slice_ops == 0 or done):
            cals.append(wl.calibrate())
        if done:
            break
    return times, errors, kept, cals


def _normalized(times, cals, k, ref):
    """Op times rescaled to a host on which the calibration takes ref
    seconds: slice j of k ops by the mean of the calibrations before and
    after it."""
    out = array("d")
    for j in range(0, len(times), k):
        c = 0.5 * (cals[j // k] + cals[j // k + 1])
        out.extend(t * ref / c for t in times[j:j + k])
    return out


def _tail(times, pct):
    """Nearest-rank percentile pct, and the number of samples beyond it."""
    ordered = sorted(times)
    idx = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - 1 - idx


def _cli_probes(env) -> tuple[float, float]:
    interp = statistics.median(
        probes.wall_seconds([sys.executable, "-c", "pass"], env)
        for _ in range(CLI_PROBES))
    imp = statistics.median(
        probes.wall_seconds([sys.executable, "-c", "import thetaframe.cli"],
                               env)
        for _ in range(CLI_PROBES))
    return interp, imp - interp


def _traced(wl, seconds, env):
    """A fixed list of ops run plain and traced, in alternating chunks so
    drift in machine speed hits both sides alike. Returns per-layer
    metrics, report lines, ops attempted and ops failed."""
    n_ops = max(1, math.ceil(wl.nominal_ops_per_s * seconds / 4))
    ops = list(itertools.islice(wl.ops(), n_ops))
    wl.warm_up()
    tracer = tracing.Tracer()
    plain_times, traced_times, failed = [], [], 0
    chunks = 4
    for k in range(chunks):
        chunk = ops[k * n_ops // chunks:(k + 1) * n_ops // chunks]
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            wl.set_traced(traced)
            if traced:
                tracer.install()
            try:
                times, errors, _, _ = _run_ops(wl, chunk, gates=False)
            finally:
                tracer.uninstall()
            (traced_times if traced else plain_times).extend(times)
            failed += len(errors)
    wl.set_traced(False)
    spans_path = WORK / f"spans-{wl.name}-seed{wl.seed}.tsv.gz"
    tracer.write_spans(str(spans_path))
    totals = tracing.merge([tracer.totals(), *wl.child_totals])
    plain = sum(plain_times)
    traced = sum(traced_times)
    m = tracing.metrics(totals)
    interp, imp = _cli_probes(env)
    m["cli.interp_s"] = (interp, "s")
    m["cli.import_s"] = (imp, "s")
    # time inside thetaframe.cli.main per command, measured in the children
    m["cli.command_s"] = (totals.get("cli.busy_s", 0.0)
                          / max(1, len(wl.child_totals)), "s")
    accounted = tracing.self_time_sum(totals)
    m["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    m["trace.accounted_frac"] = (accounted / traced, "frac")
    m["trace.ops"] = (n_ops, "count")
    lines = [f"traced {n_ops} ops: plain {plain:.4f} s, traced "
             f"{traced:.4f} s, overhead {traced / plain - 1.0:+.2%}; "
             f"{len(tracer.fids)} spans in "
             f"{spans_path.relative_to(ROOT)}",
             f"layer self time covers {accounted / traced:.2%} of traced op "
             "time"]
    if wl.name == "lattice":
        quoted = (totals.get("theta.self_s", 0.0)
                  + totals.get("frame.self_s", 0.0)
                  + totals.get("sweep.self_s", 0.0)
                  + totals.get("grid_busy_s", 0.0))
        lines.append(f"theta.self + frame.self + sweep.self + "
                     f"oracle.grid_busy = {quoted:.4f} s = "
                     f"{quoted / traced:.2%} of traced op time")
    return m, lines, n_ops * 2, failed


def _untraced(wl, seconds, env):
    """Set-up probes, warm-up, the timed loop and the gates. Returns the
    end-to-end metrics, report lines, ops attempted and ops failed."""
    setup, setup_raw, setup_cals = _setup_seconds(wl.name, wl.seed, env)
    wl.warm_up()
    times, errors, kept, cals = _run_ops(wl, wl.ops(), seconds,
                                         slice_ops=wl.slice_ops)
    rss_kb = (wl.child_rss_kb if wl.name == "cli" else
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    wl.check(kept)
    report = wl.report
    attempted = len(times)
    failed = len(errors) + len(report.failures)
    norm = _normalized(times, cals, wl.slice_ops, wl.cal_ref_s)
    tail, beyond = _tail(norm, wl.tail_pct)
    q = report.quality
    informative = sum(q.informative) / len(q.informative)
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (attempted / sum(norm), "1/s"),
        "op_p50_ms": (statistics.median(norm) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "informative_frac": (informative, "frac"),
        "bound_digits_p50": (statistics.median(q.digits), "digits"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    lines = [
        "set-up probes (s): " + " ".join(f"{s:.4f}" for s in setup_raw)
        + "; numpy imports before them (s): "
        + " ".join(f"{s:.4f}" for s in setup_cals),
        f"ops: {attempted} in {sum(times):.3f} s; tail at "
        f"p{wl.tail_pct:g} with {beyond} samples beyond",
        f"calibration: median {statistics.median(cals):.5f} s, min "
        f"{min(cals):.5f} s over {len(cals)} runs; op times are rescaled "
        f"to {wl.cal_ref_s} s",
        f"unscaled: {attempted / sum(times)!r} ops/s, p50 "
        f"{statistics.median(times) * 1e3!r} ms, tail "
        f"{_tail(times, wl.tail_pct)[0] * 1e3!r} ms",
        f"failed_op_frac = {failed / attempted:.6g} ({len(errors)} raised, "
        f"{len(report.failures)} failed a gate)",
        f"containment_miss_frac = "
        f"{report.missed / max(1, report.checked):.6g} ({report.missed} of "
        f"{report.checked} checked; {report.underflowed} below the normal "
        "range, counted uninformative)",
        f"uninformative_frac = {1 - informative:.6g} of "
        f"{len(q.informative)} results",
    ] + report.notes
    lines += [f"op {i} raised {exc!r}" for i, exc in errors[:5]]
    lines += report.failures[:20]
    return m, lines, attempted, failed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "thetaframe" / "__init__.py").is_file():
        print(f"error: no thetaframe sources under {SRC}; run from the root "
              "of a thetaframe checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thetaframe
    if Path(thetaframe.__file__).resolve().parent != SRC / "thetaframe":
        print(f"error: imported thetaframe from {thetaframe.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = _child_env()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, workdir, env) if args.workload == "cli" else cls(
        args.seed, workdir)
    try:
        lines = [f"workload {args.workload}: seed {args.seed}, "
                 f"{args.seconds:g} s, trace {args.trace}",
                 "env " + json.dumps(_environment(args.seed), sort_keys=True)]
        if args.trace:
            m, more, attempted, failed = _traced(wl, args.seconds, env)
        else:
            m, more, attempted, failed = _untraced(wl, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines += more
    lines += [f"{name} = {v!r} {unit}" for name, (v, unit) in m.items()]
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in m.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
