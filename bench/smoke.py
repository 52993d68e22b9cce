"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload in BENCHMARK.json for one second, untraced and
traced, and checks that the last stdout line is the result object with
every named metric present, finite and in its declared unit. Then runs
the benchmark in a directory holding only BENCHMARK.json and bench/ and
checks that it fails without printing a result. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, workload: str, trace: int):
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    cmd = spec["command"][:1] + [str(cwd / a) if a.startswith("bench/")
                                 else a for a in spec["command"][1:]]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd + ["--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _problems(result, expected: dict) -> list[str]:
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return [f"exit {result.returncode}: {result.stderr.strip()[-500:]}"]
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return ["last line is not JSON"]
    out = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"keys {sorted(doc)}")
    if doc.get("correct") is not True:
        out.append(f"correct = {doc.get('correct')!r}")
    if not (isinstance(doc.get("attempted"), int) and doc["attempted"] >= 1):
        out.append(f"attempted = {doc.get('attempted')!r}")
    if doc.get("failed") != 0:
        out.append(f"failed = {doc.get('failed')!r}")
    metrics = doc.get("metrics", {})
    if set(metrics) != set(expected):
        out.append(f"metric names differ: missing "
                   f"{sorted(set(expected) - set(metrics))}, extra "
                   f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            out.append(f"{name}: {m!r} (unit should be {unit})")
        elif not (isinstance(m["value"], (int, float))
                  and math.isfinite(m["value"])):
            out.append(f"{name}: value {m['value']!r}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            problems = _problems(_run(ROOT, w["name"], trace), expected)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {w['name']} --trace {trace}")
            for p in problems:
                print(f"    {p}")
            bad += bool(problems)
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = _run(bare, spec["workloads"][0]["name"], 0)
        ok = res.returncode != 0 and not res.stdout.strip()
        print(f"{'ok' if ok else 'FAIL'} refuses to run without sources "
              f"(exit {res.returncode})")
        bad += not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
