"""The benchmark harness still runs against this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    """bench/run.py --smoke runs every workload on tiny inputs, traced and
    untraced, and self-tests its checks; a change to a name or output the
    harness reads fails it."""
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr
