"""Timed child processes: set-up probes and the CLI's calibration."""

from __future__ import annotations

import subprocess
import sys
import time

NUMPY_IMPORT_REF_S = 0.15   # numpy_import_seconds() on the reference host


def wall_seconds(cmd, env) -> float:
    """Wall time of one child process, which must succeed."""
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def numpy_import_seconds(env) -> float:
    """Wall time of a fresh interpreter importing numpy: the start-up cost
    under every CLI command and set-up, which drifts with the host apart
    from its CPU speed."""
    return wall_seconds([sys.executable, "-c", "import numpy"], env)
