"""Smoke test of the benchmark harness against the library in src/.

Runs bench/run.py for one second per workload and checks the shape of its
result line, never its timings. The traced runs go through bench/tracing.py,
which wraps the library's public functions by name, so a rename or a
removed entry point fails here rather than only in a benchmark run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _result(workload, trace):
    if not RUN.exists():
        pytest.skip("bench/ is not part of this checkout")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert doc["failed"] == 0
    assert doc["attempted"] >= 1
    return doc["metrics"]


def _assert_metrics(metrics, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec[key]:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", ["verify", "lattice", "pointwise"])
def test_traced_run(workload):
    # a traced run reports the per-layer metrics
    _assert_metrics(_result(workload, 1), "per_layer")


def test_untraced_run():
    # an untraced run reports the end-to-end metrics; for verify its
    # quality sample is every theta value the suites evaluate, replayed
    # under a tracer that sees only module-level eval_theta calls
    for workload in ("pointwise", "verify"):
        _assert_metrics(_result(workload, 0), "end_to_end")


def test_tracer_leaves_no_wrapper_in_package():
    # the package binds its names lazily; names the warm-up used before
    # the tracer was installed must come back unwrapped after uninstall
    if not RUN.exists():
        pytest.skip("bench/ is not part of this checkout")
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(RUN.parent)!r}]\n"
        "import thetaframe as tf, tracing\n"
        "tf.frame_bounds(tf.lattice_params(2, 0.7))\n"
        "with tracing.Tracer() as tracer:\n"
        "    tf.frame_bounds(tf.lattice_params(3, 0.5))\n"
        "assert len(tracer.fids) > 0\n"
        "print(sorted(k for k, v in vars(tf).items()"
        " if hasattr(v, '__wrapped__')))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_frame_beta_range_ends_build_lattices():
    # the bench draws bounds lattices from frame_beta_range(n); both ends
    # must lie in the theta domain that LatticeParams enforces
    if not RUN.exists():
        pytest.skip("bench/ is not part of this checkout")
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(RUN.parent)!r}]\n"
        "import thetaframe as tf, workloads\n"
        "for n in range(1, 9):\n"
        "    for beta in workloads.frame_beta_range(n):\n"
        "        tf.lattice_params(n, beta)\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "ok"


def test_verify_product_grids_are_symmetric():
    # every pair suite raises DomainError on a grid not symmetric about
    # s = 1, which would fail a verify op; check the grids the workload
    # draws, without evaluating them
    if not RUN.exists():
        pytest.skip("bench/ is not part of this checkout")
    script = (
        "import itertools, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(RUN.parent)!r}]\n"
        "import workloads\n"
        "from thetaframe.verify import _symmetric_center\n"
        "for seed in range(1, 11):\n"
        "    ops = workloads.Verify(seed, None).ops()\n"
        "    for _, config in itertools.islice(ops, 1000):\n"
        "        _symmetric_center(config.product_grid.points())\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "ok"


def test_lattice_ops_rewrite_their_artifacts(tmp_path):
    # every lattice op rewrites op.csv and op.svg in one workdir; after
    # three ops, the third shorter than the second in both files (seed 5),
    # both must hold exactly a fresh emission of the last op's rows
    if not RUN.exists():
        pytest.skip("bench/ is not part of this checkout")
    script = (
        "import itertools, sys\n"
        "from pathlib import Path\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(RUN.parent)!r}]\n"
        "import thetaframe as tf, workloads\n"
        "work = Path(sys.argv[1])\n"
        "wl = workloads.Lattice(5, work)\n"
        "sizes = []\n"
        "for i, op in enumerate(itertools.islice(wl.ops(), 3)):\n"
        "    rows = wl.execute(op, i)[0]\n"
        "    sizes.append([(work / f'op.{e}').stat().st_size\n"
        "                  for e in ('csv', 'svg')])\n"
        "assert all(a > b for a, b in zip(*sizes[1:])), sizes\n"
        "tf.emit_csv(rows, work / 'fresh.csv')\n"
        "tf.emit_plot(rows, work / 'fresh.svg', op[7])\n"
        "for e in ('csv', 'svg'):\n"
        "    assert ((work / f'op.{e}').read_bytes()\n"
        "            == (work / f'fresh.{e}').read_bytes()), e\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "ok"
