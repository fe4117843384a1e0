"""The benchmark's self-check and its three sessions pass against this
checkout."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    # result schema, failed-job reporting and the seeded inputs, end to end
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck ok" in proc.stdout


@pytest.mark.parametrize("workload", ["represent", "pa-assembly", "census"])
def test_session_matches_the_pinned_outputs(tmp_path, workload):
    # represent: represent --max-order 4 on z8neg and z5 and the
    # derived-action tables of klein4 on z2xz4; pa-assembly: rgwa pa on
    # z2xz4, neg2x8 and z16neg, whose digests pin the pa_action witnesses;
    # census: validate, pentactions, analyze, oracle and noether, and the
    # budget refusal of pentactions on neg4x4.  Each job is checked against
    # perfbench/expected.json (exit code, fields and stdout digest).
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/session.py", workload, "0", "0",
         str(tmp_path), str(result)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    jobs = json.loads(result.read_text())["jobs"]
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    assert len(jobs) == len(workloads[workload])
    assert all(job["ok"] for job in jobs), jobs
