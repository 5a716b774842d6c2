"""Smoke test of the benchmark harness.

`bench/test_bench.py` runs every workload at a tiny size, with and without
the per-layer tracer.  The tracer wraps library functions by name, so a
refactor that renames or drops one of them breaks `--trace 1`; running the
self-test here makes that a test failure instead.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "test_bench.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
