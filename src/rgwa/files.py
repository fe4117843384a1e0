"""JSON exchange formats and the standard corpus emitter.

Object file:     {"name": str, "order": n, "add": [[...]], "act": [[...]]}
Report:          {"passed": bool, "violations": [{"condition", "witness"}]}
Pentaction file: {"object": name, "dotL": [...], ..., "pow": [...]}
Pentactions:     {"count": m, "object": name, "pentactions": [pentaction file, ...]},
                 written from the Maps x W factors in canonical key order
                 (``dumps_pentactions``): (2*|Maps| + |W| + 2)*n encoded
                 integers, since the dots are the identity

Object files are the only documents read; reports and pentactions are
only written.  All emitters are byte-stable: keys sorted, fixed separators,
trailing newline.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import FiniteGwaObject, invert_map, make_object
from .corpus import s3_conjugation_tables, standard_corpus
from .errors import InputError
from .pentactions import Pentaction


def dumps_canonical(data, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def dumps_pentactions(name: str, ups, rows, pretty: bool = False) -> str:
    """``dumps_canonical`` of the `rgwa pentactions` document of an object
    whose pentactions have the map parts (id, id, up, up^-1) for up in
    ``ups`` and the pow tables ``rows``.

    Entry i*len(rows) + j pairs ups[i] with rows[j], the canonical key
    order.  Its sorted keys put pow between the map slots, so the entry is
    prefix(i) + pow(j) + suffix(i), and each fragment is encoded once per
    factor row rather than once per entry; the identity dots once in all.
    """
    enc = json.JSONEncoder(indent=2 if pretty else None,
                           separators=(",", ": " if pretty else ":"))

    def pad(depth: int) -> str:  # the line break before an item at depth
        return "\n" + "  " * depth if pretty else ""

    def member(key: str, depth: int, value=None) -> str:  # None: the key alone
        text = pad(depth) + enc.encode(key) + enc.key_separator
        return text if value is None else text + enc.encode(value).replace("\n", pad(depth))

    pows = [enc.encode(row).replace("\n", pad(3)) for row in rows]
    ident = list(range(len(rows[0])))  # rows holds the zero table at least
    prefix = (pad(2) + "{" + member("dotL", 3, ident) + "," + member("dotR", 3, ident) + ","
              + member("object", 3, name) + "," + member("pow", 3))
    entries = []
    for up in ups:
        suffix = "," + member("up", 3, up) + "," + member("upL", 3, invert_map(up)) + pad(2) + "}"
        entries.append(prefix + (suffix + "," + prefix).join(pows) + suffix)
    return ("{" + member("count", 1, len(ups) * len(rows)) + "," + member("object", 1, name)
            + "," + member("pentactions", 1) + "[" + ",".join(entries) + pad(1) + "]"
            + pad(0) + "}\n")


def object_to_json(obj: FiniteGwaObject) -> dict:
    return {
        "name": obj.name,
        "order": obj.order,
        "add": [list(row) for row in obj.add],
        "act": [list(row) for row in obj.act],
    }


def parse_object_json(data: dict) -> tuple[str, int, list, list]:
    """Pull the raw fields out of an object document without validating the
    axioms (the caller decides whether failures are errors or reports)."""
    if not isinstance(data, dict):
        raise InputError("object document must be a JSON object")
    missing = {"name", "order", "add", "act"} - data.keys()
    if missing:
        raise InputError(f"object document is missing keys: {sorted(missing)}")
    name, order = data["name"], data["order"]
    if not isinstance(name, str):
        raise InputError("object name must be a string")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InputError("object order must be a positive integer")
    return name, order, data["add"], data["act"]


def object_from_json(data: dict, require_reduced: bool = True) -> FiniteGwaObject:
    name, order, add, act = parse_object_json(data)
    return make_object(name, order, add, act, require_reduced=require_reduced)


def load_object(path, require_reduced: bool = True) -> FiniteGwaObject:
    return object_from_json(read_json(path), require_reduced=require_reduced)


def save_object(obj: FiniteGwaObject, path, pretty: bool = True) -> None:
    Path(path).write_text(dumps_canonical(object_to_json(obj), pretty=pretty), encoding="utf-8")


def read_json(path):
    """Load a JSON document, turning parse failures into input errors that
    name the path: malformed JSON with its position, and bytes that are not
    UTF-8, nesting past the recursion limit or an integer literal past
    Python's digit limit with the decoder's message."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise InputError(f"{path}: unreadable JSON: {exc}") from exc


def pentaction_to_json(pent: Pentaction) -> dict:
    out: dict = {"object": pent.parent.name}
    for slot, table in pent.tables().items():
        out[slot] = list(table)
    return out


def emit_corpus(directory) -> list[str]:
    """Write the standard corpus as object files; byte-stable across runs.

    Emits z1..z8, klein4 and z2xz4 (all valid) plus s3_conjugation, the
    negative example that fails the reduced checks by construction.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    add, act = s3_conjugation_tables()
    negative = make_object("s3_conjugation", len(add), add, act, require_reduced=False)
    written = []
    for obj in (*standard_corpus(), negative):
        path = out_dir / f"{obj.name}.json"
        save_object(obj, path)
        written.append(str(path))
    return written
