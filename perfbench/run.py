"""Workbench benchmark: timed user sessions over the rgwa CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run makes as many fresh-process passes of the workload (session.py) as
best fill S seconds, one pass at a time: a single closed-loop client, so
rgwa's caches start cold in every pass.  --trace 0 reports the end-to-end
metrics as medians over passes; --trace 1 alternates untraced and traced
passes and reports per-layer metrics.  The last line of stdout is the result
object; the line before it holds the environment record and any failed jobs.
Exit status is 0 when a result was printed, 2 when rgwa's sources are absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "rgwa"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, jobs_digest  # noqa: E402

SETUPS_PER_PASS = 3
# Every run must end within 180 s; passes stop being started after this.
DEADLINE_S = 170.0


class Run:
    """The passes of one benchmark run and the failures they met."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.perf_counter()
        self.count = 0
        self.attempted = self.failed = 0
        self.failures: list[dict] = []
        self.versions = {"python": platform.python_version(), "numpy": "unknown"}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def session(self, trace: bool, setup_only: bool = False) -> dict | None:
        """One fresh-process pass; None when it crashed or ran out of time.
        A set-up-only pass counts as one attempted operation, a full pass as
        one per job."""
        self.count += 1
        workdir = WORK / f"{os.getpid()}-{self.count}"
        result = workdir / "result.json"
        argv = [sys.executable, str(HERE / "session.py"), self.workload,
                str(self.seed), str(int(trace)), str(workdir), str(result)]
        if setup_only:
            argv.append("--setup-only")
        try:
            t_spawn = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, stdout=sys.stderr.fileno(), check=True,
                           timeout=max(1.0, DEADLINE_S - self.elapsed()))
            doc = json.loads(result.read_text())
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            ops = 1 if setup_only else len(WORKLOADS[self.workload])
            self.attempted += ops
            self.failed += ops
            self.failures.append({"pass": self.count, "why": f"{type(exc).__name__}: {exc}"})
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc["setup_s"] = doc["t_ready"] - t_spawn
        self.versions = {"python": doc["python"], "numpy": doc["numpy"]}
        if setup_only:
            self.attempted += 1
        for job in doc["jobs"]:
            self.attempted += 1
            if not job["ok"]:
                self.failed += 1
                self.failures.append({"pass": self.count, "job": job["id"], "why": job["why"]})
        return doc

    def more(self, done: int, seconds: float) -> bool:
        """Whether to start another pass: yes until the run's end lies nearer
        to ``seconds`` than one more pass would bring it."""
        if done == 0:
            return True
        elapsed = self.elapsed()
        per_pass = elapsed / done
        return elapsed + per_pass / 2 < seconds and elapsed + per_pass < DEADLINE_S


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    passes: list[dict] = []
    setups: list[float] = []
    while run.more(len(passes), seconds):
        # Set-up is short and the machine's speed drifts, so set-up-only
        # passes are spread through the run for its median.
        for _ in range(SETUPS_PER_PASS):
            doc = run.session(False, setup_only=True)
            if doc is not None:
                setups.append(doc["setup_s"])
        doc = run.session(False)
        if doc is None:
            break
        passes.append(doc)
        setups.append(doc["setup_s"])
    if not passes:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(run: Run, seconds: float,
              names: list[str]) -> tuple[dict[str, float], dict | None]:
    plain: list[dict] = []
    traced: list[dict] = []
    while run.more(len(traced), seconds):
        a, b = run.session(False), run.session(True)
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
    if not traced:
        return {}, None
    out = {name: statistics.median(t["layers"].get(name, 0) for t in traced)
           for name in names}
    out["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    out["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        p["wall_s"] for p in plain)
    out["fail_frac"] = run.failed / max(run.attempted, 1)
    return out, traced[-1]


def environment(run: Run) -> dict:
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        **run.versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": run.seed,
        "workload": run.workload,
        "jobs_sha256": jobs_digest(run.workload),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"rgwa sources not found under {SRC.parent}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, last = per_layer(run, args.seconds, list(units))
    else:
        metrics, last = end_to_end(run, args.seconds), None
    detail = {"environment": environment(run), "failures": run.failures}
    if last is not None:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"{run.workload}-seed{run.seed}-trace.json"
        trace_file.write_text(json.dumps({**detail, "spans": last["spans"]}))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and all(name in metrics for name in units),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
