"""The benchmark's output checks against this checkout's program."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs the program from src/ and requires each of
    the benchmark's checks to accept its answers and reject wrong ones, so
    a change to a line those checks read fails here first."""
    res = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
