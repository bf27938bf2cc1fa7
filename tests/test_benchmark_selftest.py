"""The benchmark runner's self-test, run with the suite so that a change
which leaves a traced function without a caller fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    # The failed checks first, so a failure names them whatever else is printed.
    assert [line for line in result.stdout.splitlines() if line.startswith("FAIL:")] == []
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest passed" in result.stdout
