"""One workload pass in a fresh process: the user session being measured.

Usage: session.py WORKLOAD SEED TRACE WORKDIR RESULT [--setup-only]

Set-up imports rgwa from the checkout's src/ and writes the seeded input
files into WORKDIR; then every job runs in order, one at a time, sharing the
process and rgwa's caches the way a library session does.  Each job's output
is checked against perfbench/expected.json.  The pass writes one JSON
document to RESULT.  --setup-only stops after set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _report(report) -> dict | None:
    if report is None:
        return None
    return {"passed": report["passed"],
            "conditions": [v["condition"] for v in report["violations"]]}


def summarize(job: dict, code: int, out: dict):
    """The fields of a job's output that do not depend on element labels."""
    verb = job["argv"][0] if "argv" in job else job["call"]
    if code == 3:
        return {"refusal": "error" in out}
    if verb == "validate":
        return _report(out)
    if verb == "pentactions":
        return {"count": out["count"]}
    if verb == "oracle":
        return {k: out[k] for k in ("count_pruned", "count_bruteforce", "equal")}
    if verb == "noether":
        return {k: out[k] for k in ("subgroup_orders", "quotient_order")}
    if verb == "analyze":
        return {"perfect": out["perfect"],
                "stabilizer_size": len(out["stabilizer"]),
                "weak_stabilizer_size": len(out["weak_stabilizer"]),
                "noether_chain": out["noether_chain"]}
    if verb in ("pa", "represent"):
        fields = {"pa_order": out["pa_order"],
                  "pa_rgwa": _report(out["pa_rgwa"]),
                  "pa_action": _report(out["pa_action"])}
        if verb == "represent":
            rep = out["representability"]
            fields["pairs_checked"] = rep["pairs_checked"]
            fields["all_passed"] = rep["all_passed"]
            fields["failures"] = sorted([f["stage"], f["B"]] for f in rep["failures"])
        return fields
    if verb == "enumerate_derived_actions":
        return {"found": out["found"]}
    raise ValueError(f"no summary for {verb!r}")


def call(job: dict, paths: dict[str, str], rgwa) -> tuple[int, object]:
    """Run one job: (exit code, captured stdout) for a verb, (0, result) for
    a library call."""
    if "call" in job:
        objs = [rgwa.load_object(paths[name]) for name in job["args"]]
        return 0, getattr(rgwa, job["call"])(*objs)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = rgwa.cli.main([a.format(**paths) for a in job["argv"]])
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def observe(job: dict, code: int, output, seed: int) -> dict:
    """Exit code, label-free fields and, at seed 0, the output digest."""
    if "call" in job:
        text = json.dumps([[t.dot, t.up, t.pow] for t in output], separators=(",", ":"))
        parsed = {"found": len(output)}
    else:
        text, parsed = output, json.loads(output)
    got = {"exit": code, "fields": summarize(job, code, parsed)}
    if seed == 0:
        got["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return got


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir, result_path = argv[:5]
    seed, trace = int(seed), trace == "1"
    setup_only = "--setup-only" in argv
    sys.path.insert(0, str(SRC))
    import numpy
    import rgwa
    import rgwa.cli

    from tracer import Tracer
    from workloads import WORKLOADS, carriers_of, object_document

    if Path(rgwa.__file__).resolve().parent != SRC / "rgwa":
        raise SystemExit(f"imported rgwa from {rgwa.__file__}, not from {SRC}")
    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in carriers_of(workload):
        paths[name] = str(work / f"{name}.json")
        Path(paths[name]).write_text(object_document(name, seed), encoding="utf-8")
    t_ready = time.perf_counter()

    doc: dict = {"t_ready": t_ready,
                 "python": sys.version.split()[0], "numpy": numpy.__version__,
                 "jobs": []}
    if not setup_only:
        expected = json.loads((HERE / "expected.json").read_text())[workload]
        tracer = None
        if trace:
            tracer = Tracer(rgwa.BudgetExceededError)
            tracer.install()
        for job in WORKLOADS[workload]:
            if tracer is not None:
                tracer.job = job["id"]
            want = expected[job["id"]]
            if seed != 0:
                want = {k: v for k, v in want.items() if k != "sha256"}
            entry = {"id": job["id"], "seconds": None, "ok": False, "why": ""}
            doc["jobs"].append(entry)
            start = time.perf_counter()
            try:
                try:
                    code, output = call(job, paths, rgwa)
                finally:
                    entry["seconds"] = time.perf_counter() - start
                got = observe(job, code, output, seed)
            except Exception as exc:  # a crash is a failed job, not a crashed run
                entry["why"] = f"raised {type(exc).__name__}: {exc}"
                continue
            mismatched = sorted(k for k in want if want[k] != got.get(k))
            entry["ok"] = not mismatched
            if mismatched:
                entry["why"] = "mismatch in " + ", ".join(mismatched)
        doc["wall_s"] = sum(j["seconds"] for j in doc["jobs"])
        usage = resource.getrusage(resource.RUSAGE_SELF)
        doc["peak_rss_mb"] = usage.ru_maxrss / 1024
        doc["cpu_s"] = usage.ru_utime + usage.ru_stime
        if tracer is not None:
            doc["layers"] = tracer.metrics()
            doc["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
