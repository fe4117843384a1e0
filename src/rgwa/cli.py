"""Command-line surface emitting machine-readable JSON verdicts.

Verbs: validate, corpus, pentactions, pa, analyze, noether, represent,
oracle.  One parser reads a verb, a path (the object file, or the output
directory of corpus) and four flags shared by every verb.  Exit codes: 0
all checks passed, 1 a verified violation (with witnesses in the JSON), 2
input or format error, 3 enumeration budget exceeded.  Output is canonical
JSON on stdout (--pretty for indentation); --out first writes the same
document to a file, and a failed write exits 2 with only its error on
stdout.  --budget and --max-order are non-negative.

`pentactions` writes its document from the factors Maps x W of the set, in
canonical key order: (2*|Maps| + |W| + 2)*n encoded integers and
m = |Maps|*|W| string joins.  Its budget still charges the product |ups|*n^|gens|, since
all m entries are written.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .analysis import analysis_report, noether_quotient
from .core import _check_tables, _scan_axioms
from .errors import BudgetExceededError, InputError, ValidationError
from .files import (
    dumps_canonical,
    dumps_pentactions,
    emit_corpus,
    load_object,
    parse_object_json,
    read_json,
)
from .pentactions import (
    DEFAULT_BUDGET,
    _check_budget,
    _pentaction_factors,
    enumerate_pentactions,
    enumerate_pentactions_bruteforce,
)
from .representability import build_pa_object, verify_representability

EXIT_PASSED = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _cmd_validate(args) -> tuple[int, dict]:
    name, order, add, act = parse_object_json(read_json(args.path))
    tables = _check_tables(order, add, act)  # before the charge: costs only the document's size
    cells = order**3
    if cells > args.budget:
        raise BudgetExceededError(
            f"axiom scan of {name!r} visits {cells} cells (order^3), budget is {args.budget}"
        )
    report = _scan_axioms(*(np.asarray(x, dtype=np.intp) for x in tables), require_reduced=True)
    return (EXIT_PASSED if report.passed else EXIT_VIOLATION), report.to_json()


def _cmd_corpus(args) -> tuple[int, dict]:
    written = emit_corpus(args.path)
    return EXIT_PASSED, {"written": written}


def _cmd_pentactions(args) -> tuple[int, str]:
    obj = load_object(args.path)
    _check_budget(obj, args.budget)
    return EXIT_PASSED, dumps_pentactions(obj.name, *_pentaction_factors(obj), pretty=args.pretty)


def _cmd_pa(args) -> tuple[int, dict]:
    obj = load_object(args.path)
    pa = build_pa_object(obj, budget=args.budget)
    action = pa.action_report
    payload: dict = {
        "pa_order": pa.order,
        "pa_rgwa": pa.report.to_json(),
        "pa_action": None if action is None else action.to_json(),
    }
    passed = action is not None and action.passed and pa.report.passed
    return (EXIT_PASSED if passed else EXIT_VIOLATION), payload


def _cmd_analyze(args) -> tuple[int, dict]:
    obj = load_object(args.path)
    return EXIT_PASSED, analysis_report(obj, budget=args.budget)


def _cmd_noether(args) -> tuple[int, dict]:
    obj = load_object(args.path)
    chain = noether_quotient(obj, budget=args.budget)
    return EXIT_PASSED, {
        "subgroup_orders": [len(w) for w in chain.subgroups],
        "subgroups": [list(w.members) for w in chain.subgroups],
        "quotient_order": chain.quotient.order,
        "quotient_name": chain.quotient.name,
    }


def _cmd_represent(args) -> tuple[int, dict]:
    obj = load_object(args.path)
    report = verify_representability(obj, max_b_order=args.max_order, budget=args.budget)
    return (EXIT_PASSED if report.all_passed else EXIT_VIOLATION), report.to_json()


def _cmd_oracle(args) -> tuple[int, dict]:
    obj = load_object(args.path)
    pruned = enumerate_pentactions(obj, budget=args.budget)
    brute = enumerate_pentactions_bruteforce(obj)
    equal = [p.key() for p in pruned] == [p.key() for p in brute]
    payload = {
        "object": obj.name,
        "count_pruned": len(pruned),
        "count_bruteforce": len(brute),
        "equal": equal,
    }
    return (EXIT_PASSED if equal else EXIT_VIOLATION), payload


def _count(text: str) -> int:
    """A non-negative integer option; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


_VERBS = {
    "validate": _cmd_validate,
    "corpus": _cmd_corpus,
    "pentactions": _cmd_pentactions,
    "pa": _cmd_pa,
    "analyze": _cmd_analyze,
    "noether": _cmd_noether,
    "represent": _cmd_represent,
    "oracle": _cmd_oracle,
}


@cache  # built once: every call of main shares the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgwa",
        description="Finite-model workbench for reduced groups with action.",
    )
    parser.add_argument("verb", choices=_VERBS, help="what to run")
    parser.add_argument("path", help="object file (JSON); for corpus, the directory "
                                     "receiving the corpus files")
    parser.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                        help="candidate-visit budget for enumerations")
    parser.add_argument("--max-order", type=_count, default=3, dest="max_order",
                        help="largest acting-object order for represent")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the JSON document to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = _VERBS[args.verb](args)
    except ValidationError as exc:
        code, payload = EXIT_VIOLATION, exc.report.to_json()
    except BudgetExceededError as exc:
        code, payload = EXIT_BUDGET, {"error": str(exc)}
    except InputError as exc:
        code, payload = EXIT_INPUT, {"error": str(exc)}
    except OSError as exc:
        code, payload = EXIT_INPUT, {"error": str(exc)}
    text = payload if isinstance(payload, str) else dumps_canonical(payload, pretty=args.pretty)
    if args.out:  # before stdout, so a failed write prints only its error
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            code, text = EXIT_INPUT, dumps_canonical({"error": str(exc)}, pretty=args.pretty)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
