"""Command-line surface emitting machine-readable JSON verdicts.

Verbs: validate, corpus, pentactions, pa, analyze, noether, represent,
oracle.  The command line is a verb, a path (the object file, or the output
directory of corpus) and four flags shared by every verb, read in order by
``getopt.getopt`` between the words: flags go before or after the verb, as
``--flag value`` or ``--flag=value``, a unique prefix of a flag name stands
for it, and ``--`` ends the flags.  A usage error writes the usage and the
error to stderr and exits 2; -h/--help prints one help text and exits 0,
unless a bad verb or flag value comes before it.  Exit codes: 0
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

import getopt
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from .analysis import analysis_report, noether_quotient
from .core import _charge, _check_tables, _scan_axioms
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
    _canonical_factors,
    _check_budget,
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
    _charge(cells, args.budget, f"axiom scan of {name!r} visits {cells} cells (order^3)")
    report = _scan_axioms(*(np.asarray(x, dtype=np.intp) for x in tables), require_reduced=True)
    return (EXIT_PASSED if report.passed else EXIT_VIOLATION), report.to_json()


def _cmd_corpus(args) -> tuple[int, dict]:
    written = emit_corpus(args.path)
    return EXIT_PASSED, {"written": written}


def _cmd_pentactions(args) -> tuple[int, str]:
    obj = load_object(args.path)
    _check_budget(obj, args.budget)
    f = _canonical_factors(obj)
    return EXIT_PASSED, dumps_pentactions(obj.name, f.up.tolist(), f.pow.tolist(),
                                          pretty=args.pretty)


def _cmd_pa(args) -> tuple[int, dict]:
    obj = load_object(args.path)
    pa = build_pa_object(obj, budget=args.budget)
    payload: dict = {
        "pa_order": pa.order,
        "pa_rgwa": pa.report.to_json(),
        "pa_action": pa.action_report.to_json(),
    }
    passed = pa.action_report.passed and pa.report.passed
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

_MAX_ORDER = 3
_LONGOPTS = ["help", "budget=", "max-order=", "pretty", "out="]

_USAGE = "usage: rgwa [-h] [--budget N] [--max-order N] [--pretty] [--out FILE] VERB PATH\n"

_HELP = f"""{_USAGE}
Finite-model workbench for reduced groups with action.

arguments:
  VERB             what to run: {', '.join(_VERBS)}
  PATH             object file (JSON); for corpus, the directory receiving
                   the corpus files

options (before or after VERB; --flag=value and unique prefixes such as
--bud work too):
  -h, --help       show this help message and exit
  --budget N       candidate-visit budget for enumerations (default {DEFAULT_BUDGET})
  --max-order N    largest acting-object order for represent (default {_MAX_ORDER})
  --pretty         indent the JSON output
  --out FILE       also write the JSON document to this path
"""


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}rgwa: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _count(flag: str, text: str) -> int:
    """A non-negative integer option; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        _usage_error(f"argument {flag}: invalid int value: {text!r}")
    if value < 0:
        _usage_error(f"argument {flag}: must not be negative, got {value}")
    return value


def _check_verb(words: list[str]) -> None:
    if words and words[0] not in _VERBS:
        _usage_error(f"argument verb: invalid choice: {words[0]!r} "
                     f"(choose from {', '.join(map(repr, _VERBS))})")


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read argv in order: each getopt.getopt call takes the flags up to the
    next word, so a flag acts where it stands and the verb is checked before
    the flags after it.  Words after the first ``--`` are never flags."""
    args = SimpleNamespace(budget=DEFAULT_BUDGET, max_order=_MAX_ORDER, pretty=False, out=None)
    end = argv.index("--") if "--" in argv else len(argv)
    rest, words = argv[:end], []
    while rest:
        try:
            opts, rest = getopt.getopt(rest, "h", _LONGOPTS)
        except getopt.GetoptError as exc:
            _usage_error(str(exc))
        for flag, value in opts:
            if flag in ("-h", "--help"):
                sys.stdout.write(_HELP)
                raise SystemExit(0)
            if flag == "--budget":
                args.budget = _count(flag, value)
            elif flag == "--max-order":
                args.max_order = _count(flag, value)
            elif flag == "--pretty":
                args.pretty = True
            else:
                args.out = value
        words += rest[:1]
        rest = rest[1:]
        _check_verb(words)
    words += argv[end + 1:]
    _check_verb(words)
    if len(words) < 2:
        _usage_error("the following arguments are required: "
                     + ", ".join(("verb", "path")[len(words):]))
    if len(words) > 2:
        _usage_error(f"unrecognized arguments: {' '.join(words[2:])}")
    args.verb, args.path = words
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
