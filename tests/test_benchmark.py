"""The benchmark's self-check passes against this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    # result schema, failed-job reporting and the seeded inputs, end to end
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck ok" in proc.stdout
