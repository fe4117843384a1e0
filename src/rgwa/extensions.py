"""Actions of one object on another: split extensions, the derived-action
triple they induce, and the 22-condition characterization of derived actions.

A triple consists of ``dot[b][a] = b . a``, ``up[a][b] = a ^ b`` and
``pow[b][a] = b ^ a``.  ``check_derived_action`` scans, in order: the three
group-action laws for the dot component (ga.1-ga.3), the eight structure
laws 1A-4A / 1B-4B, the unit law zeroB, and the ten interaction laws
a1-a10.  Each is one numpy violation mask in the table ``_CONDITIONS``,
tagged with its index axes (A or B, sized per call) and the tables it
reads, each led by a candidate axis.  As for the pentaction conditions,
``core._violations`` scans one candidate for minimal witnesses and
``core._passing`` gives a batch's verdicts.  Side constraints clear the
excluded cells rather than failing vacuously.  The enumerators filter each
stage's batch by the subset of the table reading the tables fixed so far.

Every dot map of a derived action is the identity.  Lemma: let n_A >= 2
and let f satisfy f(a)^g = a^g for all a and all g != 0.  Then -g != 0
too, so by action.zero and action.compose

    f(a) = f(a)^(g + (-g)) = (f(a)^g)^(-g) = (a^g)^(-g) = a,

and f is the identity; when n_A = 1 the identity is the only map.  3A
applies this to every dot[b], and p3 and p3d apply it to the dotL and dotR
of a pentaction.  So a derived action is its up family and its pow rows.

With dot = id, 3B and a7 for a column up(., b) are its p5 and p9, so each
column lies in Maps(A), the up of A's factor record
(``pentactions._canonical_factors``), a group on any validated A (the
``rgwa.pa`` docstring).  A family is walked by ``core._walk``
(``_families``) as its columns U[b] = up(., b), from U[0] = id, by
U[b + g] = up_g o U[b] and U[b - g] = up_g^-1 o U[b] for the images up_g
of B's generators, read with the inverses from that record, and kept as a
(k, n_B) index array into Maps(A).  So 1A, zeroB, 4A and a2 hold by
construction, 3B and a7 by membership, and a6 on every abelian A, as every
reduced A is; on another it fails once n_B > 1, as each column is onto A.
The walk checks 2B and a5 on the walked columns (``_FAMILY_CHECKS``), 2B at
B's generators b2 only: by associativity, the b2 at which it holds for all
b are closed under +.
``check_derived_action`` and the brute-force oracle scan every cell.

``enumerate_derived_actions`` keeps its triples as one columnar batch
(``_DerivedBatch``): the kept up tables, the pow rows W' that can occur,
and per triple its up family and the index in W' of each of its pow rows.
Its pow stage walks rows of W' (``core._walk``) and reads the seven
pow-reading conditions through their indices (``_POW_INDEX_CHECKS``),
against tables of A alone.  One ``np.lexsort`` puts the kept families in
the order of their up tables, and a stable order by family puts the batch
in canonical order: within a family the walk already gives ascending pow
rows (the order lemma of ``core._walk``).  ``verify_representability``
reads the batch as it is.
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
    _charge,
    _check_table,
    _chunked,
    _generator_lead,
    _passing,
    _pick,
    _row_finder,
    _violated,
    _violations,
    _walk,
    generating_words,
    is_morphism,
    object_cache,
)
from .errors import InputError, StructuralError, ValidationError
from .pa import _OBSTRUCTIONS
from .pentactions import DEFAULT_BUDGET, _canonical_factors, _charge_walks
from .report import PASSED, CheckReport, Violation

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


def _validate_triple_shape(triple: DerivedActionTriple) -> None:
    na, nb = triple.A.order, triple.B.order
    for name, table, rows, cols in (
        ("dot", triple.dot, nb, na),
        ("up", triple.up, na, nb),
        ("pow", triple.pow, nb, na),
    ):
        _check_table(table, rows, cols, na, name)


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
        if not got.table_equal(want):
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


# The _arrays of A and B and a batch of k triples as (k, ...) index arrays;
# a table that no scanned condition reads may be None.
_Tables = namedtuple("_Tables", "addA actA negA rA addB actB negB rB dot up pow")


def _tables(A: FiniteGwaObject, B: FiniteGwaObject, dot=None, up=None, pow=None) -> _Tables:
    arrays = (None if x is None else np.asarray(x, dtype=np.intp) for x in (dot, up, pow))
    return _Tables(*A._arrays, *B._arrays, *arrays)


def _sizes(A: FiniteGwaObject, B: FiniteGwaObject) -> dict[str, int]:
    return {"A": A.order, "B": B.order}


def _after(f: np.ndarray, s, g: np.ndarray) -> np.ndarray:
    """f[k, b, g[k, x, y]] over (k, b in s, x, y): row b of f after g, as one
    index array into the rows b of all candidates laid side by side."""
    k, n = len(f), f.shape[2]
    rows = f[:, s].swapaxes(0, 1).reshape(-1, k * n)
    return rows[:, g + n * np.arange(k)[:, None, None]].swapaxes(0, 1)


# (id, index axes in witness order, tables read, violation mask), in report
# order; every table read is led by a candidate axis k.  A mask takes the
# tables and a slice or index array s of the first index axis and returns
# the violated cells (k, s, ...); side constraints such as a2 != 0 clear the
# excluded cells.  A row indexes s on its own, as t.up[:, s][:, :, t.addB]:
# next to another index array, a one-entry s would broadcast against it.
_CONDITIONS = (
    # dot[b + b2][a] = dot[b][dot[b2][a]]
    ("ga.1", "BBA", ("dot",), lambda t, s: t.dot[:, t.addB[s]] != _after(t.dot, s, t.dot)),
    # dot[b][a + a2] = dot[b][a] + dot[b][a2]
    ("ga.2", "BAA", ("dot",),
     lambda t, s: t.dot[:, s][:, :, t.addA] != t.addA[t.dot[:, s, :, None], t.dot[:, s, None]]),
    # dot[0][a] = a
    ("ga.3", "A", ("dot",), lambda t, s: t.dot[:, 0, s] != t.rA[s]),
    # up[a + a2][b] = up[a][b] + up[a2][b]
    ("1A", "AAB", ("up",),
     lambda t, s: t.up[:, t.addA[s]] != t.addA[t.up[:, s, None], t.up[:, None]]),
    # pow[b + b2][a] = pow[b][a] + dot[b][pow[b2][a]]
    ("2A", "BBA", ("pow", "dot"),
     lambda t, s: t.pow[:, t.addB[s]] != t.addA[t.pow[:, s, None], _after(t.dot, s, t.pow)]),
    # dot[b][a] ^ a2 = a ^ a2  for a2 != 0
    ("3A", "BAA", ("dot",), lambda t, s: (t.actA[t.dot[:, s]] != t.actA) & (t.rA > 0)),
    # up[dot[b][a]][b2] = up[a][b2]
    ("4A", "BAB", ("dot", "up"), lambda t, s: _pick(t.up, t.dot[:, s]) != t.up[:, None]),
    # pow[b][a + a2] = pow[b][a] ^ a2 + pow[b][a2]
    ("1B", "BAA", ("pow",),
     lambda t, s: t.pow[:, s][:, :, t.addA] != t.addA[t.actA[t.pow[:, s]], t.pow[:, s, None]]),
    # up[a][b + b2] = up[up[a][b]][b2]
    ("2B", "ABB", ("up",), lambda t, s: t.up[:, s][:, :, t.addB] != _pick(t.up, t.up[:, s])),
    # up[a ^ dot[b][a2]][b] = up[a][b] ^ a2; up is read by column b
    ("3B", "ABA", ("dot", "up"),
     lambda t, s: _pick(t.up.swapaxes(1, 2), t.rB[:, None],
                        t.actA[t.rA[s, None, None], t.dot[:, None]]) != t.actA[t.up[:, s]]),
    # up[pow[b][dot[b2][a]]][b2] = pow[b ^ b2][a]; up is read by column b2
    ("4B", "BBA", ("pow", "dot", "up"),
     lambda t, s: _pick(t.up.swapaxes(1, 2), t.rB[:, None], _after(t.pow, s, t.dot))
     != t.pow[:, t.actB[s]]),
    # up[a][0] = a
    ("zeroB", "A", ("up",), lambda t, s: t.up[:, s, 0] != t.rA[s]),
    # dot[b][a ^ a2] = a ^ a2  for a2 != 0
    ("a1", "BAA", ("dot",), lambda t, s: (t.dot[:, s][:, :, t.actA] != t.actA) & (t.rA > 0)),
    # dot[b][up[a][b2]] = up[a][b2]  for b2 != 0
    ("a2", "BAB", ("dot", "up"),
     lambda t, s: (_after(t.dot, s, t.up) != t.up[:, None]) & (t.rB > 0)),
    # dot[b ^ b2][a] = a  for b2 != 0
    ("a3", "BBA", ("dot",),
     lambda t, s: (t.dot[:, t.actB[s]] != t.rA) & (t.rB[:, None] > 0)),
    # pow[b][a ^ a2] = pow[b][a]
    ("a4", "BAA", ("pow",), lambda t, s: t.pow[:, s][:, :, t.actA] != t.pow[:, s, :, None]),
    # up[a][b ^ b2] = up[a][b]
    ("a5", "ABB", ("up",), lambda t, s: t.up[:, s][:, :, t.actB] != t.up[:, s, :, None]),
    # up[a][b] + a2 = a2 + up[a][b]  for b != 0
    ("a6", "ABA", ("up",),
     lambda t, s: (t.addA[t.up[:, s]] != t.addA.T[t.up[:, s]]) & (t.rB[:, None] > 0)),
    # a ^ up[a2][b] = a ^ a2
    ("a7", "AAB", ("up",),
     lambda t, s: t.actA[t.rA[s, None, None], t.up[:, None]] != t.actA[s, :, None]),
    # a ^ pow[b][a2] = a  for a2 != 0
    ("a8", "ABA", ("pow",),
     lambda t, s: (t.actA[t.rA[s, None, None], t.pow[:, None]] != t.rA[s, None, None])
     & (t.rA > 0)),
    # pow[b][pow[b2][a]] = 0
    ("a9", "BBA", ("pow",), lambda t, s: _after(t.pow, s, t.pow) != 0),
    # pow[b][up[a][b2]] = pow[b][a]
    ("a10", "BAB", ("pow", "up"), lambda t, s: _after(t.pow, s, t.up) != t.pow[:, s, :, None]),
)


def _reading(*tables: str):
    """The conditions reading exactly the given tables, in report order."""
    return tuple(c for c in _CONDITIONS if set(c[2]) == set(tables))


# The enumerators run each subset as soon as the tables it reads are fixed.
_DOT_ONLY, _UP_ONLY, _DOT_UP = _reading("dot"), _reading("up"), _reading("dot", "up")
_POW_READING = tuple(c for c in _CONDITIONS if "pow" in c[2])


def check_derived_action(triple: DerivedActionTriple) -> CheckReport:
    """Scan the 22 derived-action conditions; one minimal witness each."""
    _validate_triple_shape(triple)
    t = _tables(triple.A, triple.B, [triple.dot], [triple.up], [triple.pow])
    return CheckReport(tuple(_violations(t, _CONDITIONS, _sizes(triple.A, triple.B))))


# ---------------------------------------------------------------------------
# Enumeration of all derived actions of B on A.
# ---------------------------------------------------------------------------


# 2B and a5 of up families U, (k, n_B, n_A) with U[k, b] the column
# up(., b), as violation masks led by k over B's _arrays; 2B is checked at
# the b2 in g, B's generators (module docstring).
_FAMILY_CHECKS = (
    # up(., b + b2) = up(., b2) o up(., b)
    ("2B", lambda B, g, U: U[:, B.add[:, g]] != _pick(U, g[:, None], U[:, :, None])),
    # up(., b ^ b2) = up(., b)
    ("a5", lambda B, g, U: U[:, B.act] != U[:, :, None]),
)


def _families(A: FiniteGwaObject, B: FiniteGwaObject) -> np.ndarray:
    """The up families of the derived actions of B on A as (k, n_B) indices
    into Maps(A), in product order of the generator images (module docstring)."""
    f = _canonical_factors(A)
    g = _generator_lead(B)
    out = [np.zeros((0, B.order), dtype=np.intp)]
    if B.order > 1 and not A.is_abelian:  # a6
        return out[0]

    def rule(prev, img, step):
        # up(., b + g) = up_g o up(., b), up(., b - g) = up_g^-1 o up(., b)
        return f.up[(img if step[3] > 0 else f.inv[img])[:, None], prev]

    for U in _walk(generating_words(B), np.arange(len(f.up)), np.arange(A.order), rule,
                   B.order * B.order * A.order):
        for _, mask in _FAMILY_CHECKS:
            U = U[~_violated(mask(B._arrays, g, U))]
        out.append(f.find_up(U))
    return np.concatenate(out)


@object_cache(maxsize=32)
def _pow_rows(A: FiniteGwaObject):
    """W', the rows r of A's pentaction pow factor with r o r = 0, and its
    row finder; the rows are shared by every batch on A, so read-only."""
    rows = _canonical_factors(A).pow
    rows = rows[(np.take_along_axis(rows, rows, axis=1) == 0).all(axis=1)]
    rows.setflags(write=False)
    return rows, _row_finder(rows)


@object_cache(maxsize=32)
def _pow_products(A: FiniteGwaObject):
    """The Z, S, TM and RM of ``_PowIndex``, built in chunks; Z and RM are
    where the a9 and a10 rows of ``pa._OBSTRUCTIONS`` vanish over W'."""
    (rows, find), add = _pow_rows(A), A._arrays.add
    maps, cells = _canonical_factors(A).up, rows.size
    value = {cid: v for cid, _, v, _ in _OBSTRUCTIONS}
    Z = _chunked(len(rows), cells, lambda s: ~value["a9"](maps, rows, A._arrays, s).any(axis=2))
    S = _chunked(len(rows), cells, lambda s: find(add[rows[s, None], rows]))
    TM = _chunked(len(maps), cells, lambda s: find(maps[s][:, rows]))
    RM = _chunked(len(rows), maps.size,
                  lambda s: ~value["a10"](maps, rows, A._arrays, s).any(axis=1)).T
    return Z, S, TM, RM


# The derived actions of B on A as columns, in canonical order.  Triple t
# has the identity dot table, the up table ups[pair[t]] of the sorted kept
# up tables ups (P, nA, nB), and as pow row b the row J[t, b] of rows
# (W', nA), so ascending (pair, J) is the order of
# ``DerivedActionTriple.key``.
_DerivedBatch = namedtuple("_DerivedBatch", "ups rows pair J")


# The pow stage's index tables over the rows of W', of A alone, -1 marking
# a row outside W': Z[j, j2] is whether W'[j] o W'[j2] = 0, S[j, j2] the
# index of W'[j] + W'[j2], TM[i, j] the index of up_i o W'[j] and RM[i, j]
# whether W'[j] o up_i = W'[j], for up_i in Maps(A); F holds the P kept up
# families as indices into Maps(A).
_PowIndex = namedtuple("_PowIndex", "Z S TM RM F addB actB")

# The seven pow-reading conditions of walked candidates with kept up families
# p and J[k, b] the index of row b in W', -1 outside, as violation masks led
# by k.  1B, a4 and a8 read one row each, and W' is exactly the rows passing
# them and a9 at b = b2, so those three hold iff J >= 0.  The other four
# compare indices over (k, b, b2).
_POW_INDEX_CHECKS = (
    ("1B a4 a8", lambda x, p, J: J < 0),
    # pow[b][pow[b2][a]] = 0
    ("a9", lambda x, p, J: ~x.Z[J[:, :, None], J[:, None]]),
    # pow[b + b2] = pow[b] + pow[b2]
    ("2A", lambda x, p, J: J[:, x.addB] != x.S[J[:, :, None], J[:, None]]),
    # pow[b ^ b2] = up(., b2) o pow[b]
    ("4B", lambda x, p, J: J[:, x.actB] != x.TM[x.F[p][:, None], J[:, :, None]]),
    # pow[b][up[a][b2]] = pow[b][a]
    ("a10", lambda x, p, J: ~x.RM[x.F[p][:, None], J[:, :, None]]),
)


def _derived_action_batch(A: FiniteGwaObject, B: FiniteGwaObject, budget: int) -> _DerivedBatch:
    """The derived actions of B on A as one sorted batch; the stages are
    those of ``enumerate_derived_actions``."""
    gensB, stepsB = generating_words(B)
    na, nb = A.order, B.order
    stage = f"derived-action enumeration for {B.name!r} on {A.name!r}"
    _charge_walks(A, budget, stage)
    maps = _canonical_factors(A).up
    n_maps = len(maps)
    families = n_maps ** len(gensB)
    _charge(families, budget, f"{stage} needs at least {families} candidate visits "
                              f"(refused before the family search)")
    F = _families(A, B)
    rows, find = _pow_rows(A)
    # ups[p, a, b] = up_{F[p, b]}(a), sorted by table
    ups = maps[F].swapaxes(1, 2)
    if not len(F):
        return _DerivedBatch(ups, rows, np.zeros(0, np.intp), np.zeros((0, nb), np.intp))
    order = np.lexsort(ups.reshape(len(ups), -1).T[::-1])
    F, ups = F[order], ups[order]
    # the pow stage's candidates, its 2A table and its 4B and a10 tables
    total = len(ups) * len(rows) ** len(gensB) + len(rows) ** 2 + n_maps * len(rows)
    _charge(total, budget, f"{stage} needs {total} candidate visits")
    x = _PowIndex(*_pow_products(A), F, B._arrays.add, B._arrays.act)
    addA, negA = A._arrays.add, A._arrays.neg

    def rule(prev, row, step):
        # pw[x + g] = pw[x] + pw[g], pw[x - g] = pw[x] - pw[g]
        return addA[prev, row if step[3] > 0 else negA[row]]

    found = []
    for values in _walk((gensB, stepsB), rows, np.zeros(na, np.intp), rule, len(ups) * nb * na):
        # one walk per image row i, then every kept up table p with every i
        walk = find(values)
        p, i = (v.ravel() for v in np.indices((len(ups), len(walk))))
        J = walk[i]
        live = np.arange(len(J))
        for _, mask in _POW_INDEX_CHECKS:
            live = live[~_violated(mask(x, p[live], J[live]))]
        found.append((p[live], J[live]))
    pair, J = (np.concatenate(c) for c in zip(*found))
    # the chunks follow the walk, so each family's J rows already ascend
    order = np.argsort(pair, kind="stable")
    return _DerivedBatch(ups, rows, pair[order], J[order])


def enumerate_derived_actions(
    A: FiniteGwaObject, B: FiniteGwaObject, budget: int = DEFAULT_BUDGET
) -> list[DerivedActionTriple]:
    """All verified derived actions of B on A, canonically ordered.

    Pruned: every dot map is the identity, the up families are walked over
    Maps(A) by index (both in the module docstring), and the pow table is
    generated from its values on additive generators of A and B (1B, 2A).
    The rows W' are the rows r of A's cached pentaction pow factor (p4, p7
    and p10 are 1B, a4 and a8 at one b) with r o r = 0 (a9 at b = b2).
    With dot = id, 2A is pw[b + b2] = pw[b] + pw[b2], so each assignment of
    rows of W' to B's generators is walked once, for every kept up table,
    and each walked row is looked up in W'; the seven pow-reading
    conditions are then index comparisons (``_POW_INDEX_CHECKS``), so every
    kept triple carries the passing report without a rescan.  The batch is
    sorted by its up tables; within one, the walk gives ascending rows.

    Each charge goes through ``core._charge``: n_A^|gensA| before A's
    additive bijections and pow factor are walked
    (``pentactions._charge_walks``), the |Maps(A)|^|gensB| families before
    the family search, and after it the |kept ups| * |W'|^|gensB| pow-stage
    candidates plus the |W'|^2 entries of its 2A table and the
    |Maps(A)| * |W'| of its 4B and a10 tables.  A refusal reads "<stage>
    needs [at least] <count> candidate visits, budget is <budget>".
    """
    return _batch_triples(A, B, _derived_action_batch(A, B, budget))


def _batch_triples(A: FiniteGwaObject, B: FiniteGwaObject,
                   batch: _DerivedBatch) -> list[DerivedActionTriple]:
    """The triples of a batch as verified DerivedActionTriples; the identity
    dot table, each kept up table and each row of W' become tuples once."""
    dot = (tuple(range(A.order)),) * B.order
    ups = [tuple(map(tuple, up)) for up in batch.ups.tolist()]
    rows = tuple(map(tuple, batch.rows.tolist()))
    return [DerivedActionTriple(A, B, dot, ups[p], tuple(rows[j] for j in js), report=PASSED)
            for p, js in zip(batch.pair.tolist(), batch.J.tolist())]


def enumerate_derived_actions_bruteforce(
    A: FiniteGwaObject, B: FiniteGwaObject
) -> list[DerivedActionTriple]:
    """Exhaustive oracle: filter all n_A^(3 n_A n_B) raw table triples.

    It runs the stages of the pruned enumerator over unpruned tables: the
    dot-only conditions on every dot table, the up-only ones on every up
    table, 4A, 3B and a2 on every (dot, up) pair, and the seven pow-reading
    conditions on every pair with every pow table.
    """
    na, nb = A.order, B.order
    if na ** (3 * na * nb) > _BRUTEFORCE_CAP:
        raise InputError(
            f"brute-force enumeration of actions of {B.name!r} on {A.name!r} "
            f"would visit {na ** (3 * na * nb)} triples, above the cap"
        )
    sizes = _sizes(A, B)
    flat = np.asarray(list(product(range(na), repeat=na * nb)), dtype=np.intp)
    ups, pws = flat.reshape(-1, na, nb), flat.reshape(-1, nb, na)
    ups = ups[_passing(_tables(A, B, up=ups), _UP_ONLY, sizes)]
    dots = pws[_passing(_tables(A, B, dot=pws), _DOT_ONLY, sizes)]
    d, u = (x.ravel() for x in np.indices((len(dots), len(ups))))
    keep = _passing(_tables(A, B, dot=dots[d], up=ups[u]), _DOT_UP, sizes)
    d, u = d[keep], u[keep]
    pair, w = (x.ravel() for x in np.indices((len(d), len(pws))))
    dot, up, pw = dots[d[pair]], ups[u[pair]], pws[w]
    keep = _passing(_tables(A, B, dot=dot, up=up, pow=pw), _POW_READING, sizes)
    return [
        DerivedActionTriple(A, B, *(tuple(map(tuple, x)) for x in table), report=PASSED)
        for table in zip(*(x[keep].tolist() for x in (dot, up, pw)))
    ]


def direct_sum_extension(A: FiniteGwaObject, B: FiniteGwaObject) -> SplitExtension:
    """The split extension of B by A with E = A (+) B, i(a) = (a, 0),
    p((x, y)) = y and j(b) = (0, b)."""
    E = direct_sum(A, B)
    i = GwaMorphism(A, E, tuple(a * B.order for a in range(A.order)))
    p = GwaMorphism(E, B, tuple(e % B.order for e in range(E.order)))
    j = GwaMorphism(B, E, tuple(range(B.order)))
    return SplitExtension(A, E, B, i, p, j)
