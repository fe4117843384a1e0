"""Actions of one object on another: split extensions, the derived-action
triple they induce, and the 22-condition characterization of derived actions.

A triple consists of ``dot[b][a] = b . a``, ``up[a][b] = a ^ b`` and
``pow[b][a] = b ^ a``.  ``check_derived_action`` scans, in order: the three
group-action laws for the dot component (ga.1-ga.3), the eight structure
laws 1A-4A / 1B-4B, the unit law zeroB, and the ten interaction laws
a1-a10.  Each is one numpy violation mask in the table ``_CONDITIONS``,
tagged with its index axes (A or B, sized per call) and the tables it
reads.  The masks read the cached ``_arrays`` of A and B, and the one scan
loop ``core._violations``, shared with the axioms and the morphism laws,
runs the table in chunks.  Side constraints clear the excluded cells rather
than failing vacuously.  The enumerators run subsets of the same table
through ``core._holds``, each as soon as the tables it reads are fixed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np

from .corpus import direct_sum
from .core import (
    FiniteGwaObject,
    GwaMorphism,
    Table,
    _freeze_table,
    _generator_walk,
    _holds,
    _image_chunks,
    _violated,
    _violations,
    additive_bijections,
    generating_words,
    is_morphism,
)
from .errors import BudgetExceededError, InputError, StructuralError, ValidationError
from .pentactions import _pow_factor
from .report import PASSED, CheckReport, Violation

DEFAULT_BUDGET = 100_000_000

_BRUTEFORCE_CAP = 4_194_304


@dataclass(frozen=True)
class SplitExtension:
    """A short exact sequence 0 -> A -i-> E -p-> B -> 0 with a section j."""

    A: FiniteGwaObject
    E: FiniteGwaObject
    B: FiniteGwaObject
    i: GwaMorphism
    p: GwaMorphism
    j: GwaMorphism


@dataclass(frozen=True)
class DerivedActionTriple:
    """Value tables of an action of B on A.

    ``report`` carries the outcome of the 22-condition scan when the triple
    has been verified; triples may also exist unverified (report None).
    """

    A: FiniteGwaObject
    B: FiniteGwaObject
    dot: Table
    up: Table
    pow: Table
    report: CheckReport | None = field(default=None, compare=False)

    def key(self) -> tuple[int, ...]:
        """Canonical sort key: concatenated dot | up | pow tables."""
        return (
            tuple(v for row in self.dot for v in row)
            + tuple(v for row in self.up for v in row)
            + tuple(v for row in self.pow for v in row)
        )


def _same_obj(x: FiniteGwaObject, y: FiniteGwaObject) -> bool:
    return x is y or x.table_equal(y)


def _validate_triple_shape(triple: DerivedActionTriple) -> None:
    na, nb = triple.A.order, triple.B.order
    for name, table, rows, cols in (
        ("dot", triple.dot, nb, na),
        ("up", triple.up, na, nb),
        ("pow", triple.pow, nb, na),
    ):
        if len(table) != rows or any(len(r) != cols for r in table):
            raise InputError(f"{name} table must be {rows}x{cols}")
        for r in table:
            for v in r:
                if not 0 <= v < na:
                    raise InputError(f"{name} entry {v} out of range 0..{na - 1}")


def check_split_extension(ext: SplitExtension) -> CheckReport:
    """Verify the component morphisms plus injectivity, surjectivity, the
    kernel equation image(i) = p^-1(0), and the section law p(j(b)) = b."""
    endpoint_pairs = (
        (ext.i.source, ext.A, "i.source"),
        (ext.i.target, ext.E, "i.target"),
        (ext.p.source, ext.E, "p.source"),
        (ext.p.target, ext.B, "p.target"),
        (ext.j.source, ext.B, "j.source"),
        (ext.j.target, ext.E, "j.target"),
    )
    for got, want, label in endpoint_pairs:
        if not _same_obj(got, want):
            raise InputError(f"extension endpoint mismatch at {label}")
    violations: list[Violation] = []
    for label, f in (("i", ext.i), ("p", ext.p), ("j", ext.j)):
        for v in is_morphism(f).violations:
            violations.append(Violation(f"ext.{label}.{v.condition}", v.witness))

    def first(condition, cells, violated):
        witness = next((c for c in cells if violated(*c)), None)
        if witness is not None:
            violations.append(Violation(condition, witness))

    i, p, j = ext.i.map, ext.p.map, ext.j.map
    image_i, image_p = set(i), set(p)
    first("ext.inj", combinations(range(ext.A.order), 2), lambda x, y: i[x] == i[y])
    first("ext.surj", product(range(ext.B.order)), lambda b: b not in image_p)
    first("ext.ker", product(range(ext.E.order)), lambda e: (p[e] == 0) != (e in image_i))
    first("ext.section", product(range(ext.B.order)), lambda b: p[j[b]] != b)
    return CheckReport(tuple(violations))


def action_from_split_extension(ext: SplitExtension) -> DerivedActionTriple:
    """Compute the induced triple inside E and read it back through i:

        b . a = j(b) + a - j(b)
        b ^ a = j(b)^a - j(b)
        a ^ b = a^(j(b))

    Raises StructuralError when a computed value escapes image(i).
    """
    report = check_split_extension(ext)
    if not report.passed:
        raise ValidationError("split extension fails its structural checks", report)
    E, A, B = ext.E, ext.A, ext.B
    back = {e: a for a, e in enumerate(ext.i.map)}

    def readback(value: int, what: str, b: int, a: int) -> int:
        try:
            return back[value]
        except KeyError:
            raise StructuralError(
                f"{what} at (b={b}, a={a}) produced E-element {value} outside "
                f"image(i); the extension is not internal to the reduced category"
            ) from None

    dot, pw = [], []
    for b in range(B.order):
        jb, njb = ext.j.map[b], E.neg[ext.j.map[b]]
        dot.append(
            tuple(
                readback(E.add[E.add[jb][ext.i.map[a]]][njb], "b.a", b, a)
                for a in range(A.order)
            )
        )
        pw.append(
            tuple(
                readback(E.add[E.act[jb][ext.i.map[a]]][njb], "b^a", b, a)
                for a in range(A.order)
            )
        )
    up = tuple(
        tuple(
            readback(E.act[ext.i.map[a]][ext.j.map[b]], "a^b", b, a)
            for b in range(B.order)
        )
        for a in range(A.order)
    )
    triple = DerivedActionTriple(A, B, tuple(dot), up, tuple(pw))
    return replace(triple, report=check_derived_action(triple))


# ---------------------------------------------------------------------------
# The 22 conditions as one table, scanned by core._violations.
# ---------------------------------------------------------------------------


# The _arrays of A and B and the index arrays of a triple; a table that no
# scanned condition reads may be None.
_Tables = namedtuple("_Tables", "addA actA negA rA addB actB negB rB dot up pw")


def _tables(A: FiniteGwaObject, B: FiniteGwaObject, dot=None, up=None, pw=None) -> _Tables:
    arrays = (None if x is None else np.asarray(x, dtype=np.intp) for x in (dot, up, pw))
    return _Tables(*A._arrays, *B._arrays, *arrays)


def _sizes(A: FiniteGwaObject, B: FiniteGwaObject) -> dict[str, int]:
    return {"A": A.order, "B": B.order}


# (id, index axes in witness order, tables read, violation mask), in report
# order.  A mask takes the tables and a slice s of the leading axis and
# returns the violated cells whose leading index lies in s; side constraints
# such as a2 != 0 clear the excluded cells.
_CONDITIONS = (
    # dot[b + b2][a] = dot[b][dot[b2][a]]
    ("ga.1", "BBA", ("dot",), lambda t, s: t.dot[t.addB[s]] != t.dot[s][:, t.dot]),
    # dot[b][a + a2] = dot[b][a] + dot[b][a2]
    ("ga.2", "BAA", ("dot",),
     lambda t, s: t.dot[s][:, t.addA] != t.addA[t.dot[s, :, None], t.dot[s, None, :]]),
    # dot[0][a] = a
    ("ga.3", "A", ("dot",), lambda t, s: t.dot[0, s] != t.rA[s]),
    # up[a + a2][b] = up[a][b] + up[a2][b]
    ("1A", "AAB", ("up",), lambda t, s: t.up[t.addA[s]] != t.addA[t.up[s, None], t.up]),
    # pow[b + b2][a] = pow[b][a] + dot[b][pow[b2][a]]
    ("2A", "BBA", ("pow", "dot"),
     lambda t, s: t.pw[t.addB[s]] != t.addA[t.pw[s, None], t.dot[s][:, t.pw]]),
    # dot[b][a] ^ a2 = a ^ a2  for a2 != 0
    ("3A", "BAA", ("dot",), lambda t, s: (t.actA[t.dot[s]] != t.actA) & (t.rA > 0)),
    # up[dot[b][a]][b2] = up[a][b2]
    ("4A", "BAB", ("dot", "up"), lambda t, s: t.up[t.dot[s]] != t.up),
    # pow[b][a + a2] = pow[b][a] ^ a2 + pow[b][a2]
    ("1B", "BAA", ("pow",),
     lambda t, s: t.pw[s][:, t.addA] != t.addA[t.actA[t.pw[s]], t.pw[s, None]]),
    # up[a][b + b2] = up[up[a][b]][b2]
    ("2B", "ABB", ("up",), lambda t, s: t.up[s][:, t.addB] != t.up[t.up[s]]),
    # up[a ^ dot[b][a2]][b] = up[a][b] ^ a2
    ("3B", "ABA", ("dot", "up"),
     lambda t, s: t.up[t.actA[t.rA[s, None, None], t.dot], t.rB[:, None]]
     != t.actA[t.up[s]]),
    # up[pow[b][dot[b2][a]]][b2] = pow[b ^ b2][a]
    ("4B", "BBA", ("pow", "dot", "up"),
     lambda t, s: t.up[t.pw[s][:, t.dot], t.rB[:, None]] != t.pw[t.actB[s]]),
    # up[a][0] = a
    ("zeroB", "A", ("up",), lambda t, s: t.up[s, 0] != t.rA[s]),
    # dot[b][a ^ a2] = a ^ a2  for a2 != 0
    ("a1", "BAA", ("dot",), lambda t, s: (t.dot[s][:, t.actA] != t.actA) & (t.rA > 0)),
    # dot[b][up[a][b2]] = up[a][b2]  for b2 != 0
    ("a2", "BAB", ("dot", "up"), lambda t, s: (t.dot[s][:, t.up] != t.up) & (t.rB > 0)),
    # dot[b ^ b2][a] = a  for b2 != 0
    ("a3", "BBA", ("dot",),
     lambda t, s: (t.dot[t.actB[s]] != t.rA) & (t.rB[:, None] > 0)),
    # pow[b][a ^ a2] = pow[b][a]
    ("a4", "BAA", ("pow",), lambda t, s: t.pw[s][:, t.actA] != t.pw[s, :, None]),
    # up[a][b ^ b2] = up[a][b]
    ("a5", "ABB", ("up",), lambda t, s: t.up[s][:, t.actB] != t.up[s, :, None]),
    # up[a][b] + a2 = a2 + up[a][b]  for b != 0
    ("a6", "ABA", ("up",),
     lambda t, s: (t.addA[t.up[s]] != t.addA.T[t.up[s]]) & (t.rB[:, None] > 0)),
    # a ^ up[a2][b] = a ^ a2
    ("a7", "AAB", ("up",), lambda t, s: t.actA[s][:, t.up] != t.actA[s, :, None]),
    # a ^ pow[b][a2] = a  for a2 != 0
    ("a8", "ABA", ("pow",),
     lambda t, s: (t.actA[s][:, t.pw] != t.rA[s, None, None]) & (t.rA > 0)),
    # pow[b][pow[b2][a]] = 0
    ("a9", "BBA", ("pow",), lambda t, s: t.pw[s][:, t.pw] != 0),
    # pow[b][up[a][b2]] = pow[b][a]
    ("a10", "BAB", ("pow", "up"), lambda t, s: t.pw[s][:, t.up] != t.pw[s, :, None]),
)


def _reading(*tables: str):
    """The conditions reading exactly the given tables, in report order."""
    return tuple(c for c in _CONDITIONS if set(c[2]) == set(tables))


# The enumerators run each subset as soon as the tables it reads are fixed.
_DOT_ONLY, _UP_ONLY, _POW_ONLY, _DOT_UP = (
    _reading("dot"), _reading("up"), _reading("pow"), _reading("dot", "up")
)
_POW_READING = tuple(c for c in _CONDITIONS if "pow" in c[2])


def check_derived_action(triple: DerivedActionTriple) -> CheckReport:
    """Scan the 22 derived-action conditions; one minimal witness each."""
    _validate_triple_shape(triple)
    t = _tables(triple.A, triple.B, triple.dot, triple.up, triple.pow)
    return CheckReport(tuple(_violations(t, _CONDITIONS, _sizes(triple.A, triple.B))))


# ---------------------------------------------------------------------------
# Enumeration of all derived actions of B on A.
# ---------------------------------------------------------------------------


def _map_families(A: FiniteGwaObject, B: FiniteGwaObject, contravariant: bool):
    """Up tables (contravariant) or dot tables whose per-element maps are
    additive bijections of A respecting B's addition (2B, resp. ga.1).

    Walked from every assignment of bijections to B's generators and
    filtered by that composition law one chunk at a time, so doomed
    families never reach the pow search.
    """
    bij = np.asarray(additive_bijections(A), dtype=np.intp)
    inverses = np.argsort(bij, axis=1)
    gensB, stepsB = generating_words(B)
    na, nb, addB = A.order, B.order, B._arrays.add

    def star(f, g):
        # the product the families respect: f o g for dot, g o f for up
        return np.take_along_axis(g, f, -1) if contravariant else np.take_along_axis(f, g, -1)

    out = []
    for images in _image_chunks(len(bij), len(gensB), nb * nb * na):
        fam = _generator_walk(stepsB, images, np.arange(na), lambda prev, img, step: star(
            prev, (bij if step[3] > 0 else inverses)[img]))
        fam = fam[~_violated(fam[:, addB] != star(fam[:, :, None], fam[:, None]))]
        tables = fam.swapaxes(1, 2) if contravariant else fam
        out.extend(tuple(map(tuple, table)) for table in tables.tolist())
    return out


# The zero object: a pow row read as the one-row pow table of a B of order 1,
# where a9 at b = b2 is the only a9 cell.
_POINT = FiniteGwaObject("0", 1, ((0,),), ((0,),))


def enumerate_derived_actions(
    A: FiniteGwaObject, B: FiniteGwaObject, budget: int = DEFAULT_BUDGET
) -> list[DerivedActionTriple]:
    """All verified derived actions of B on A, canonically ordered.

    Pruned: the per-element up maps are forced to be additive bijections
    composing anti-homomorphically, the dot maps compose homomorphically,
    and the pow table is generated from its values on additive generators
    of A and B (1B, 2A).  Each subset of the condition table runs as soon as
    the tables it reads are fixed: the dot-only conditions once per dot
    family, the up-only ones once per up family, and 4A, 3B and a2 once per
    (up, dot) pair.  A generator g of B is first reached from 0 and dot[0]
    is the identity, so pw[g] is exactly its generator row.  The rows are
    A's cached pentaction pow factor (p4, p7, p10 are 1B, a4, a8 at one b)
    less those failing a9 at b = b2, and per (up, dot) pair the rows of B's
    generators are multiplied out in one chunked walk.  Each candidate then
    runs the seven pow-reading conditions, so every kept triple has passed
    all 22 and carries the passing report without a rescan.  The budget is
    charged |bij|^|gensB| before the family searches run.
    """
    gensA, _ = generating_words(A)
    gensB, stepsB = generating_words(B)
    na, nb = A.order, B.order
    families = len(additive_bijections(A)) ** len(gensB)
    if families > budget:
        raise BudgetExceededError(
            f"derived-action enumeration for {B.name!r} on {A.name!r} needs at least "
            f"{families} candidate visits (refused before the family search), budget is {budget}"
        )
    all_ups = _map_families(A, B, contravariant=True)
    all_dots = _map_families(A, B, contravariant=False)
    total = len(all_ups) * len(all_dots) * na ** (len(gensA) * len(gensB))
    if total > budget:
        raise BudgetExceededError(
            f"derived-action enumeration for {B.name!r} on {A.name!r} needs "
            f"{total} candidate visits, budget is {budget}; 0 candidates checked"
        )
    sizes = _sizes(A, B)
    ups = [up for up in all_ups if _holds(_tables(A, B, up=up), _UP_ONLY, sizes)]
    dots = [dot for dot in all_dots if _holds(_tables(A, B, dot=dot), _DOT_ONLY, sizes)]
    rows = [row for row in _pow_factor(A)
            if _holds(_tables(A, _POINT, pw=[row]), _POW_ONLY, _sizes(A, _POINT))]
    rows = np.asarray(rows, dtype=np.intp)
    found: list[DerivedActionTriple] = []
    for up in ups:
        for dot in dots:
            t = _tables(A, B, dot=dot, up=up)
            if not _holds(t, _DOT_UP, sizes):
                continue

            def rule(prev, row, step):
                # pw[x + g] = pw[x] + dot[x] pw[g], pw[x - g] = pw[x] - dot[x - g] pw[g]
                elem, parent, _, sign = step
                return t.addA[prev, (t.dot[parent] if sign > 0 else t.negA[t.dot[elem]])[row]]

            for images in _image_chunks(len(rows), len(gensB), nb * na):
                for pw in _generator_walk(stepsB, rows[images], np.zeros(na, np.intp), rule):
                    if _holds(t._replace(pw=pw), _POW_READING, sizes):
                        pw = tuple(map(tuple, pw.tolist()))
                        found.append(DerivedActionTriple(A, B, dot, up, pw, report=PASSED))
    found.sort(key=DerivedActionTriple.key)
    return found


def enumerate_derived_actions_bruteforce(
    A: FiniteGwaObject, B: FiniteGwaObject
) -> list[DerivedActionTriple]:
    """Exhaustive oracle: filter all n_A^(3 n_A n_B) raw table triples.

    It runs the stages of the pruned enumerator over unpruned tables: the
    dot-only conditions once per dot table, the up-only ones once per up
    table, 4A, 3B and a2 once per (dot, up) pair, and the seven pow-reading
    conditions on every pow table.
    """
    na, nb = A.order, B.order
    if na ** (3 * na * nb) > _BRUTEFORCE_CAP:
        raise InputError(
            f"brute-force enumeration of actions of {B.name!r} on {A.name!r} "
            f"would visit {na ** (3 * na * nb)} triples, above the cap"
        )
    ra, sizes = range(na), _sizes(A, B)

    def tables(rows: int, cols: int):
        for flat in product(ra, repeat=rows * cols):
            yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))

    ups = [up for up in tables(na, nb) if _holds(_tables(A, B, up=up), _UP_ONLY, sizes)]
    found = []
    for dot in tables(nb, na):
        if not _holds(_tables(A, B, dot=dot), _DOT_ONLY, sizes):
            continue
        for up in ups:
            t = _tables(A, B, dot=dot, up=up)
            if not _holds(t, _DOT_UP, sizes):
                continue
            for pw in tables(nb, na):
                if _holds(t._replace(pw=np.asarray(pw)), _POW_READING, sizes):
                    found.append(DerivedActionTriple(A, B, dot, up, pw, report=PASSED))
    return found


def direct_sum_extension(A: FiniteGwaObject, B: FiniteGwaObject) -> SplitExtension:
    """The split extension of B by A with E = A (+) B, i(a) = (a, 0),
    p((x, y)) = y and j(b) = (0, b)."""
    E = direct_sum(A, B)
    i = GwaMorphism(A, E, tuple(a * B.order for a in range(A.order)))
    p = GwaMorphism(E, B, tuple(e % B.order for e in range(E.order)))
    j = GwaMorphism(B, E, tuple(range(B.order)))
    return SplitExtension(A, E, B, i, p, j)
