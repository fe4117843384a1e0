"""Per-layer tracing from outside the program.

The tracer rebinds chosen public functions in every rgwa module that binds
them, found by object identity, so calls between modules pass through the
wrappers.  Spans are kept in memory as (name, start, end, parent, job) and
turned into per-layer metrics after the last job.  Every measure is computed
from arguments and results; the tracer never calls into rgwa, which would
warm its caches.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Spanned functions: module -> names.
SPANNED = {
    "core": ("check_axioms", "additive_bijections", "is_morphism"),
    "representability": ("build_pa_object", "pa_action", "verify_uniqueness",
                         "verify_representability", "represent"),
    "pentactions": ("enumerate_pentactions", "check_pentactions_batch"),
    "extensions": ("check_derived_action", "enumerate_derived_actions"),
    "analysis": ("weak_stabilizer", "noether_quotient"),
    "corpus": ("standard_corpus",),
    "files": ("load_object", "dumps_canonical"),
    "cli": ("main",),
}
# Called once per PA table cell; counted, not spanned.
COUNTED = {"pentactions": ("pent_add", "pent_pow", "pent_neg")}
# Calls whose first argument is an object whose tables may repeat in a run.
KEYED = {"core.additive_bijections", "pentactions.enumerate_pentactions",
         "analysis.weak_stabilizer"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _measure(name, args, kwargs, result):
    """Computed measures of one call, from its arguments and result."""
    if name == "core.check_axioms":
        return {"cells": _arg(args, kwargs, 0, "order") ** 3}
    if name == "representability.build_pa_object":
        return {"pa_order": len(result.elements)}
    if name == "representability.verify_uniqueness":
        pa = _arg(args, kwargs, 4, "pa")
        if pa is None:
            return {}
        return {"maps": len(pa.elements) ** _arg(args, kwargs, 1, "B").order}
    if name == "pentactions.enumerate_pentactions":
        return {"kept": len(result)}
    if name == "pentactions.check_pentactions_batch":
        return {"candidates": len(_arg(args, kwargs, 0, "cands")),
                "passed": int(result.sum())}
    if name == "extensions.enumerate_derived_actions":
        return {"found": len(result)}
    if name == "files.dumps_canonical":
        # json.dumps escapes non-ASCII by default, so characters are bytes.
        return {"bytes": len(result)}
    return {}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self, refusal: type[BaseException]):
        self.refusal = refusal
        self.spans: list[tuple] = []   # (name, start, end, parent, job)
        self.measures: dict[int, dict] = {}
        self.stack: list[int] = []
        self.job = ""
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in KEYED}

    def _span(self, name, fn):
        spans, stack, measures = self.spans, self.stack, self.measures
        seen = self.seen.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                obj = args[0] if args else kwargs["obj"]
                key = (obj.order, obj.add, obj.act)
                if key in seen:
                    self.counts[name + ".repeat_calls"] += 1
                seen.add(key)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.refusal:
                self.counts[name + ".refused"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            measures[idx] = _measure(name, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded rgwa module."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "rgwa" or n.startswith("rgwa.")) and m is not None]
        wrappers = {}
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod, names in table.items():
                for fname in names:
                    fn = getattr(sys.modules[f"rgwa.{mod}"], fname)
                    label = ("pentactions.pent_ops.calls" if table is COUNTED
                             else f"{mod}.{fname}")
                    wrappers[id(fn)] = (fn, make(label, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over all spans: calls, self time, measures."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        out.update(self.counts)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - child[idx]
            out[name + ".incl_s"] += end - start
            for key, value in self.measures.get(idx, {}).items():
                out[f"{name}.{key}"] += value
            # Yields count only the work done inside the enumerator.
            if name == "pentactions.check_pentactions_batch" and self._inside(
                    parent, "pentactions.enumerate_pentactions"):
                out["pent_scan.candidates"] += self.measures[idx]["candidates"]
                out["pent_scan.passed"] += self.measures[idx]["passed"]
            if name == "extensions.check_derived_action" and self._inside(
                    parent, "extensions.enumerate_derived_actions"):
                out["derived_scan.checked"] += 1
        out["pentactions.enumerate_pentactions.yield"] = _ratio(
            out["pent_scan.passed"], out["pent_scan.candidates"])
        out["extensions.enumerate_derived_actions.yield"] = _ratio(
            out["extensions.enumerate_derived_actions.found"], out["derived_scan.checked"])
        return dict(out)

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False
