"""JSON exchange formats and the standard corpus emitter.

Object file:     {"name": str, "order": n, "add": [[...]], "act": [[...]]}
Report:          {"passed": bool, "violations": [{"condition", "witness"}]}
Triple file:     {"A": name, "B": name, "dot": [[...]], "up": [[...]], "pow": [[...]]}
Pentaction file: {"object": name, "dotL": [...], ..., "pow": [...]}
Pentactions:     {"count": m, "object": name, "pentactions": [pentaction file, ...]},
                 written from the Maps x W factors in canonical key order
                 (``dumps_pentactions``): (2*|Maps| + |W| + 2)*n encoded
                 integers, since the dots are the identity
Extension file:  {"A": path, "E": path, "B": path, "i": [...], "p": [...], "j": [...]}

All emitters are byte-stable: keys sorted, fixed separators, trailing newline.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import FiniteGwaObject, GwaMorphism, _freeze_table, as_index, invert_map, make_object
from .corpus import s3_conjugation_tables, standard_corpus
from .errors import InputError
from .extensions import DerivedActionTriple, SplitExtension
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


def _require_keys(data, keys: set[str], what: str) -> None:
    if not isinstance(data, dict):
        raise InputError(f"{what} document must be a JSON object")
    missing = keys - data.keys()
    if missing:
        raise InputError(f"{what} document is missing keys: {sorted(missing)}")


def _indices(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of integers, got {value!r}")
    return tuple(as_index(v) for v in value)


def parse_object_json(data: dict) -> tuple[str, int, list, list]:
    """Pull the raw fields out of an object document without validating the
    axioms (the caller decides whether failures are errors or reports)."""
    _require_keys(data, {"name", "order", "add", "act"}, "object")
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


def triple_to_json(triple: DerivedActionTriple) -> dict:
    return {
        "A": triple.A.name,
        "B": triple.B.name,
        "dot": [list(r) for r in triple.dot],
        "up": [list(r) for r in triple.up],
        "pow": [list(r) for r in triple.pow],
    }


def triple_from_json(data: dict, A: FiniteGwaObject, B: FiniteGwaObject) -> DerivedActionTriple:
    _require_keys(data, {"A", "B", "dot", "up", "pow"}, "triple")
    if data["A"] != A.name or data["B"] != B.name:
        raise InputError(
            f"triple references ({data['A']!r}, {data['B']!r}), "
            f"got objects ({A.name!r}, {B.name!r})"
        )
    return DerivedActionTriple(
        A, B, *(_freeze_table(data[key]) for key in ("dot", "up", "pow"))
    )


def pentaction_to_json(pent: Pentaction) -> dict:
    out: dict = {"object": pent.parent.name}
    for slot, table in pent.tables().items():
        out[slot] = list(table)
    return out


def pentaction_from_json(data: dict, obj: FiniteGwaObject) -> Pentaction:
    _require_keys(data, {"object", "dotL", "dotR", "up", "upL", "pow"}, "pentaction")
    if data["object"] != obj.name:
        raise InputError(
            f"pentaction references object {data['object']!r}, got {obj.name!r}"
        )
    slots = ("dotL", "dotR", "up", "upL", "pow")
    return Pentaction(obj, *(_indices(data[slot], f"pentaction {slot}") for slot in slots))


def extension_to_json(object_paths: dict[str, str], ext: SplitExtension) -> dict:
    """Serialize by reference: the three object file paths plus map sequences."""
    missing = {"A", "E", "B"} - object_paths.keys()
    if missing:
        raise InputError(f"extension document needs object paths for {sorted(missing)}")
    return {
        "A": object_paths["A"],
        "E": object_paths["E"],
        "B": object_paths["B"],
        "i": list(ext.i.map),
        "p": list(ext.p.map),
        "j": list(ext.j.map),
    }


def load_split_extension(path) -> SplitExtension:
    """Load an extension file, resolving object paths relative to it."""
    data = read_json(path)
    _require_keys(data, {"A", "E", "B", "i", "p", "j"}, f"{path}: extension")
    base = Path(path).parent
    for key in ("A", "E", "B"):
        if not isinstance(data[key], str):
            raise InputError(f"{path}: object path {key} must be a string, got {data[key]!r}")
    a, e, b = (load_object(base / data[key]) for key in ("A", "E", "B"))
    return SplitExtension(
        a, e, b,
        i=GwaMorphism(a, e, _indices(data["i"], f"{path}: map i")),
        p=GwaMorphism(e, b, _indices(data["p"], f"{path}: map p")),
        j=GwaMorphism(b, e, _indices(data["j"], f"{path}: map j")),
    )


def emit_corpus(directory) -> list[str]:
    """Write the standard corpus as object files; byte-stable across runs.

    Emits z1..z8, klein4 and z2xz4 (all valid) plus s3_conjugation, the
    negative example that fails the reduced checks by construction.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for obj in standard_corpus():
        path = out_dir / f"{obj.name}.json"
        save_object(obj, path)
        written.append(str(path))
    add, act = s3_conjugation_tables()
    negative = {
        "name": "s3_conjugation",
        "order": len(add),
        "add": [list(row) for row in add],
        "act": [list(row) for row in act],
    }
    path = out_dir / "s3_conjugation.json"
    path.write_text(dumps_canonical(negative, pretty=True), encoding="utf-8")
    written.append(str(path))
    return written
