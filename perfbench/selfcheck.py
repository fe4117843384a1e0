"""Self-check of the benchmark itself; prints "selfcheck ok" or fails loudly.

    python3 perfbench/selfcheck.py

Runs the tiny "selfcheck" workload (z1-z3) untraced and traced and confirms
that each result line has the result schema, every metric with a number and
a unit, and that the job pinned to a wrong digest is reported as a failed job
rather than crashing the run.  It also confirms that
seed 0 writes the files `rgwa corpus` writes, that other seeds relabel with
0 fixed and the greedy generator count kept, and that a directory holding
only the benchmark refuses to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selfcheck"
sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    CARRIERS, carrier_tables, greedy_generators, object_document)


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {what}")


def bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selfcheck", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_results() -> None:
    for trace in (0, 1):
        proc = bench(ROOT, trace)
        check(proc.returncode == 0, f"trace {trace} run exited {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"result keys {sorted(result)}")
        check(type(result["attempted"]) is int and result["attempted"] >= 1, "attempted")
        check(type(result["failed"]) is int, "failed")
        check(bool(result["metrics"]), f"trace {trace} result has no metrics")
        for name, m in result["metrics"].items():
            check(set(m) == {"value", "unit"}, f"{name} keys")
            check(type(m["value"]) in (int, float), f"{name} value {m['value']!r}")
            check(isinstance(m["unit"], str) and m["unit"], f"{name} unit {m['unit']!r}")
        # Every full pass fails exactly the one job pinned to a wrong digest,
        # and each failure is listed.
        bad = {f.get("job") for f in detail["failures"]}
        check(bad == {"pentactions:z3#wrong-digest"} and result["failed"] >= 1
              and len(detail["failures"]) == result["failed"],
              f"wrong digest not reported as one failed job per pass: {detail['failures']}")
        check(result["correct"] is False, "a failed job must make the run incorrect")
        env = detail["environment"]
        for key in ("git_sha", "python", "numpy", "nproc", "cpu_model", "seed", "jobs_sha256"):
            check(key in env, f"environment lacks {key}")


def check_inputs() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import rgwa

    out = SCRATCH / "corpus"
    for path in map(Path, rgwa.emit_corpus(out)):
        check(path.read_text() == object_document(path.stem, 0),
              f"seed 0 {path.stem} differs from `rgwa corpus`")
    for name in CARRIERS:
        gens = len(greedy_generators(carrier_tables(name, 0)[0]))
        for seed in (1, 2, 3):
            add, _ = carrier_tables(name, seed)
            check(add[0][0] == 0 and all(add[0][x] == x for x in range(len(add))),
                  f"{name} seed {seed} moves 0")
            check(len(greedy_generators(add)) == gens,
                  f"{name} seed {seed} changes the generator count")


def check_bare_directory(spec_text: str) -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (bare / "BENCHMARK.json").write_text(spec_text)
    proc = bench(bare, 0)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a directory without rgwa's sources must fail without a result")


def main() -> int:
    spec_text = (ROOT / "BENCHMARK.json").read_text()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_results()
        check_inputs()
        check_bare_directory(spec_text)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
