"""The benchmark's self-check and its represent session pass against this
checkout."""

import json
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


def test_represent_session_matches_the_pinned_outputs(tmp_path):
    # represent --max-order 4 on z8neg and z5 and the derived-action tables
    # of klein4 on z2xz4, each checked against perfbench/expected.json
    # (exit code, fields and stdout digest)
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/session.py", "represent", "0", "0",
         str(tmp_path), str(result)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    jobs = json.loads(result.read_text())["jobs"]
    assert len(jobs) == 3
    assert all(job["ok"] for job in jobs), jobs
