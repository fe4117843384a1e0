"""PA(A) as an object, its canonical action on A, and the factorization of
arbitrary derived actions through it.

The conditional theorems hold when the base object is perfect with zero weak
stabilizer; outside that regime every builder here stays diagnostic: reports
carry the failing conditions instead of raising.

PA(A) is built over the two factors of the pentaction set, the sorted map
parts Maps (dotL, dotR, up, upL) and the sorted pow tables W: the element
with map part i and pow table j has index i*|W| + j.  The sum and the power
are index arithmetic over the factor tables Cm, P, E and Q (``_PaFactors``),
and the cubic axioms are scanned as a map-part row and a pow-part row each,
over the factor indices the row reads: |Maps|^3 and |W|^3 cells in place of
m^3 on a perfect base.  The action of PA(A) on A is scanned the same way:
the ten derived-action conditions with two B axes are factor rows, over at
most |W|^2 * n or |Maps|^2 * n cells on a perfect base, and the other
twelve read B only through the m x n dot, up and pow tables, over at most
m * n^2 cells, so no m x m table is scanned.

A ``PAObject`` is PA(base) by construction, so every lookup into it is a
factor lookup, find_map * |W| + find_pow: ``index_of``, the images of
``represent`` and of the batch check (``_images``), and the match sets of
``verify_uniqueness``, which hold at most one element each, since every
element has dotR = dotL^-1 and upL = up^-1.

``verify_representability`` checks the derived actions of each acting
object B as one batch of index arrays: the images of all triples are
factor lookups, the morphism laws are one ``core._passing`` batch of the
rows of ``is_morphism``, and uniqueness needs no search.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    _AXIOMS,
    _HOM_LAWS,
    FiniteGwaObject,
    GwaMorphism,
    _Arrays,
    _chunked,
    _Hom,
    _passing,
    _row_finder,
    _violations,
    is_morphism,
    object_cache,
)
from .corpus import standard_corpus
from .errors import BudgetExceededError, InputError, StructuralError
from .extensions import (
    _CONDITIONS,
    DerivedActionTriple,
    _batch_triples,
    _derived_action_batch,
    _Tables,
    _validate_triple_shape,
    check_derived_action,
)
from .pentactions import (
    DEFAULT_BUDGET,
    Pentaction,
    _check_budget,
    _enumerate_pentactions_uncapped,
    _pentaction_factors,
    check_pentaction,
)
from .report import PASSED, CheckReport, Violation


@dataclass(frozen=True)
class PAObject:
    """PA(base): the pentaction set of a base object assembled into
    operation tables.

    The pentactions are the product Maps(A) x Pow(A) of their map parts
    (dotL, dotR, up, upL) and their pow tables W, each sorted, so
    ``elements[i * |W| + j]`` is the pentaction with map part i and pow
    table j.  The zero pentaction sits at index 0: identity maps are the
    least permutations and the constant 0 is the least pow table.  The sum
    and the power are index arithmetic over small factor tables:

        add[x, y] = Cm[i_x, i_y] * |W| + P[dotL(i_x), j_x, j_y]
        act[x, y] = E[i_x] * |W| + Q[i_y, j_x]

    Elements other than the enumerated pentactions of ``base`` in order
    raise InputError, so lookups read the base's factor finders.

    ``object`` is None exactly when a sum or power of two pentactions left
    the enumerated set (possible only for imperfect bases); the closure
    failures are then recorded in ``report``.  Otherwise ``report`` is the
    full reduced-axiom scan of the assembled tables.
    """

    base: FiniteGwaObject
    elements: tuple[Pentaction, ...]
    object: FiniteGwaObject | None
    report: CheckReport

    def __post_init__(self):
        if self.elements != _enumerate_pentactions_uncapped(self.base):
            raise InputError(
                f"the elements of PA({self.base.name}) are not the enumerated pentactions "
                f"of {self.base.name!r} in order"
            )

    def index_of(self, pent: Pentaction) -> int:
        """Index of a pentaction given extensionally, or -1."""
        n, tables = self.base.order, tuple(pent.tables().values())
        if any(len(x) != n for x in tables) or not set(pent.key()) <= set(range(n)):
            return -1
        f = _canonical_factors(self.base)
        rows = np.asarray(tables, dtype=np.intp)
        return int(_element(f, f.find_map(rows[:4].ravel()), f.find_pow(rows[4])))


# The factor tables of PA(A).  With p = (i, j) for map part i and pow table j,
#   p+q = (Cm[i_p, i_q], P[dot[i_p], j_p, j_q])   p^q = (E[i_p], Q[i_q, j_p])
# where dot[i] is the dotL class of map part i (one class on a perfect base)
# and W is the number of pow tables.  A result outside the factors is -1.
# The action of PA(A) on A reads the dotL and up maps of the map parts and
# the pow tables, as (|Maps|, n), (|Maps|, n) and (W, n) arrays, and A's
# _arrays; the axiom scan does not need them.  find_map and find_pow give the
# index of a map part (a dotL | dotR | up | upL row) and of a pow table.
_PaFactors = namedtuple("_PaFactors", "Cm P E Q dot W dotL up pow A find_map find_pow",
                        defaults=(None,) * 6)


def _pa_factors(obj: FiniteGwaObject, maps: Sequence, pows: Sequence) -> _PaFactors:
    """The factor tables of the sum and the power over the product of the
    map parts ``maps`` (dotL, dotR, up, upL) and the pow tables ``pows``."""
    n, add = obj.order, obj._arrays.add
    dl, dr, up, ul = np.asarray(maps, dtype=np.intp).reshape(len(maps), 4, n).swapaxes(0, 1)
    w = np.asarray(pows, dtype=np.intp).reshape(len(pows), n)
    find_map = _row_finder(np.concatenate([dl, dr, up, ul], axis=1))
    find_pow = _row_finder(w)
    classes, dot = np.unique(dl, axis=0, return_inverse=True)
    # map part of p+q: p.dotL(q.dotL), q.dotR(p.dotR), q.up(p.up), p.upL(q.upL)
    Cm = np.stack([
        find_map(np.concatenate([dl[i][dl], dr[:, dr[i]], up[:, up[i]], ul[i][ul]], axis=1))
        for i in range(len(dl))
    ])
    # pow part of p+q: p.pow + p.dotL(q.pow), in chunks of p.pow
    P = np.stack([_chunked(len(w), len(w) * n, lambda s: find_pow(add[w[s, None], d[w]]))
                  for d in classes])
    # p^q: identity dots with p's up and upL, and pow q.up(p.pow(q.dotL))
    ident = np.broadcast_to(np.arange(n), dl.shape)
    E = find_map(np.concatenate([ident, ident, up, ul], axis=1))
    Q = np.stack([find_pow(up[i][w[:, dl[i]]]) for i in range(len(dl))])
    return _PaFactors(Cm, P, E, Q, dot.reshape(-1), len(w), dl, up, w, obj._arrays,
                      find_map, find_pow)


@object_cache(maxsize=32)
def _canonical_factors(obj: FiniteGwaObject) -> _PaFactors:
    """The factor tables of PA(obj), over the enumerated factors."""
    return _pa_factors(obj, *_pentaction_factors(obj))


def _element(f: _PaFactors, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The index i * |W| + j of the element with map part i and pow table j,
    or -1 where either is -1."""
    return np.where((i < 0) | (j < 0), -1, i * f.W + j)


def _images(f: _PaFactors, negB: np.ndarray, dots: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """i[k, b]: the map part (dot[b], dot[-b], up[., b], up[., -b]) of the
    image of b under ``represent``, for k pairs of dot tables (k, |B|, n)
    and up tables (k, n, |B|), or -1 when it is not a map part of PA(A)."""
    upc = ups.swapaxes(1, 2)
    return f.find_map(np.concatenate([dots, dots[:, negB], upc, upc[:, negB]], axis=2))


def _assemble(f: _PaFactors) -> tuple[np.ndarray, np.ndarray]:
    """The m x m sum and power tables, -1 where a result leaves the set."""
    m = len(f.E) * f.W
    Cm, P = f.Cm[:, None, :, None], f.P[f.dot][:, :, None, :]
    E, Q = f.E[:, None, None, None], f.Q.T[None, :, :, None]
    add = np.where((Cm < 0) | (P < 0), -1, Cm * f.W + P)
    act = np.where((E < 0) | (Q < 0), -1, E * f.W + Q)
    shape = (len(f.E), f.W, len(f.E), f.W)
    return (np.broadcast_to(add, shape).reshape(m, m),
            np.broadcast_to(act, shape).reshape(m, m))


def _closure_gaps(add: np.ndarray, act: np.ndarray) -> tuple[Violation, ...]:
    """The first cell (x, y) in row-major order of the sum and of the power
    table whose result leaves the set, as "pa.closure.add" / "pa.closure.act"."""
    return tuple(
        Violation(condition, divmod(int((table < 0).argmax()), len(table)))
        for condition, table in (("pa.closure.add", add), ("pa.closure.act", act))
        if (table < 0).any()
    )


# The five cubic axioms over the factor tables, each a map-part row and a
# pow-part row (reduced.collapse has no map part: both sides have map part
# E[i1]).  A row is (id, variables, violation formula) where x, y, z are
# (i1, j1), (i2, j2), (i3, j3), the variables are listed in witness order,
# and dk is ik read only through its dotL class.
_PA_AXIOMS = (
    # (x+y)+z = x+(y+z)
    ("group.assoc", "i1 i2 i3",
     lambda f, i1, i2, i3: f.Cm[f.Cm[i1, i2], i3] != f.Cm[i1, f.Cm[i2, i3]]),
    ("group.assoc", "d1 j1 d2 j2 j3",
     lambda f, d1, j1, d2, j2, j3: f.P[f.dot[f.Cm[d1, d2]], f.P[f.dot[d1], j1, j2], j3]
     != f.P[f.dot[d1], j1, f.P[f.dot[d2], j2, j3]]),
    # (g+g')^h = g^h + g'^h
    ("action.add", "i1 i2",
     lambda f, i1, i2: f.E[f.Cm[i1, i2]] != f.Cm[f.E[i1], f.E[i2]]),
    ("action.add", "d1 j1 j2 i3",
     lambda f, d1, j1, j2, i3: f.Q[i3, f.P[f.dot[d1], j1, j2]]
     != f.P[f.dot[f.E[d1]], f.Q[i3, j1], f.Q[i3, j2]]),
    # g^(h+h') = (g^h)^h'
    ("action.compose", "i1", lambda f, i1: f.E[i1] != f.E[f.E[i1]]),
    ("action.compose", "j1 i2 i3",
     lambda f, j1, i2, i3: f.Q[f.Cm[i2, i3], j1] != f.Q[i3, f.Q[i2, j1]]),
    # x^y + z = z + x^y for y != 0.  No row reads j2, so the witness takes
    # j2 = 1 when i2 = 0; with |W| = 1 that is index 1 = (1, 0), and there
    # the pow row cannot fail.
    ("reduced.central", "i1 i3", lambda f, i1, i3: f.Cm[f.E[i1], i3] != f.Cm[i3, f.E[i1]]),
    ("reduced.central", "d1 j1 i2 d3 j3",
     lambda f, d1, j1, i2, d3, j3: f.P[f.dot[f.E[d1]], f.Q[i2, j1], j3]
     != f.P[f.dot[d3], j3, f.Q[i2, j1]]),
    # x^(y^z) = x^y
    ("reduced.collapse", "j1 i2", lambda f, j1, i2: f.Q[f.E[i2], j1] != f.Q[i2, j1]),
)


# The derived-action conditions with two B axes, with B = PA(A) read
# through the factors: dot[x] = dotL[i_x], up[a][x] = up[i_x][a] and
# pow[x] = pow[j_x].  Rows are (id, variables, violation formula) as in
# _PA_AXIOMS, over the condition's witness slots in ``extensions._CONDITIONS``;
# ak is the element of A in slot k.
_PA_ACTION = (
    # dot[b + b2][a] = dot[b][dot[b2][a]]
    ("ga.1", "i1 i2 a3",
     lambda f, i1, i2, a3: f.dotL[f.Cm[i1, i2], a3] != f.dotL[i1, f.dotL[i2, a3]]),
    # pow[b + b2][a] = pow[b][a] + dot[b][pow[b2][a]]
    ("2A", "d1 j1 j2 a3",
     lambda f, d1, j1, j2, a3: f.pow[f.P[f.dot[d1], j1, j2], a3]
     != f.A.add[f.pow[j1, a3], f.dotL[d1, f.pow[j2, a3]]]),
    # up[dot[b][a]][b2] = up[a][b2]
    ("4A", "i1 a2 i3", lambda f, i1, a2, i3: f.up[i3, f.dotL[i1, a2]] != f.up[i3, a2]),
    # up[a][b + b2] = up[up[a][b]][b2]
    ("2B", "a1 i2 i3", lambda f, a1, i2, i3: f.up[f.Cm[i2, i3], a1] != f.up[i3, f.up[i2, a1]]),
    # up[pow[b][dot[b2][a]]][b2] = pow[b ^ b2][a]
    ("4B", "j1 i2 a3",
     lambda f, j1, i2, a3: f.up[i2, f.pow[j1, f.dotL[i2, a3]]] != f.pow[f.Q[i2, j1], a3]),
    # dot[b][up[a][b2]] = up[a][b2]  for b2 != 0
    ("a2", "i1 a2 i3", lambda f, i1, a2, i3: f.dotL[i1, f.up[i3, a2]] != f.up[i3, a2]),
    # dot[b ^ b2][a] = a  for b2 != 0
    ("a3", "i1 a3", lambda f, i1, a3: f.dotL[f.E[i1], a3] != a3),
    # up[a][b ^ b2] = up[a][b]
    ("a5", "a1 i2", lambda f, a1, i2: f.up[f.E[i2], a1] != f.up[i2, a1]),
    # pow[b][pow[b2][a]] = 0
    ("a9", "j1 j2 a3", lambda f, j1, j2, a3: f.pow[j1, f.pow[j2, a3]] != 0),
    # pow[b][up[a][b2]] = pow[b][a]
    ("a10", "j1 a2 i3", lambda f, j1, a2, i3: f.pow[j1, f.up[i3, a2]] != f.pow[j1, a2]),
)

# The witness slot whose element must be nonzero, per factor-row condition.
_NONZERO_SLOT = {"reduced.central": "2", "a2": "3", "a3": "2"}


def _row_mask(formula, names: list[str], scanned: list[str], sizes: list[int], slot):
    """A ``core._violations`` mask of one factor row: each scanned variable
    is an open-grid axis of the given size, and the variables left out read
    0.  When witness slot ``slot`` must be nonzero, the cells with no nonzero
    element there are cleared: map part 0 when |W| = 1, or every cell when
    the slot is unread and m = 1."""
    def mask(f, s):
        axes = [np.arange(size) for size in sizes]
        axes[0] = axes[0][s]
        grid = dict(zip(scanned, np.ix_(*axes)))
        hits = formula(f, *(grid.get(v, 0) for v in names))
        if slot:
            i = grid.get(f"i{slot}")
            hits = hits & (len(f.E) * f.W > 1 if i is None else (i > 0) | (f.W > 1))
        return np.broadcast_to(hits, tuple(map(len, axes)))
    return mask


def _factor_violations(f: _PaFactors, rows):
    """Scan factor rows of PA(A) with ``core._violations``; yield each
    failing row's id and minimal witness.

    A row's variables name its three witness slots: ak is an element of A,
    and ik, jk are the map part and pow table of the element i*W + j of
    PA(A); dk is ik read only through its dotL class, not scanned when P has
    one slab.  Unread indices are 0, except in the slot of ``_NONZERO_SLOT``,
    which reads at most ik: there j = 1 when i = 0, the least nonzero
    element with that map part, and a cell with no such element (|W| = 1,
    or m = 1 when the slot is unread) is cleared in the mask."""
    W, one_class = f.W, len(f.P) == 1
    sizes = {"I": len(f.E), "J": W, "A": 0 if f.A is None else len(f.A.ar)}
    for cid, names, formula in rows:
        names = names.split()
        scanned = [v for v in names if not (v[0] == "d" and one_class)]
        axes = "".join({"a": "A", "j": "J"}.get(v[0], "I") for v in scanned)
        slot = _NONZERO_SLOT.get(cid)
        mask = _row_mask(formula, names, scanned, [sizes[a] for a in axes], slot)
        hit = next(_violations(f, [(cid, axes, mask)], sizes), None)
        if hit is None:
            continue
        cell = dict(zip((v.replace("d", "i") for v in scanned), hit.witness))
        witness = []
        for k in "123":
            i, j = cell.get(f"i{k}", 0), cell.get(f"j{k}", 0)
            witness.append(cell.get(f"a{k}", i * W + (1 if k == slot and i == 0 else j)))
        yield cid, tuple(witness)


def _pa_report(f: _PaFactors, add: np.ndarray, act: np.ndarray) -> CheckReport:
    """The reduced-axiom scan of PA(A), the same report as ``check_axioms``
    on the assembled tables.  The five cubic axioms scan their factor rows,
    and an axiom's witness is the least of its rows'.  The other three
    axioms scan the assembled tables."""
    found: dict[str, tuple[int, ...]] = {}
    for cid, witness in _factor_violations(f, _PA_AXIOMS):
        found[cid] = min(found.get(cid, witness), witness)
    t = _Arrays(add, act, None, np.arange(len(add), dtype=np.intp))
    rest = [a for a in _AXIOMS if a[0] not in {r[0] for r in _PA_AXIOMS}]
    found.update((v.condition, v.witness) for v in _violations(t, rest, {"X": len(add)}))
    return CheckReport(tuple(Violation(a[0], found[a[0]]) for a in _AXIOMS if a[0] in found))


def _pa_action_report(f: _PaFactors) -> CheckReport:
    """The 22-condition report of the action of PA(A) on A, the same as
    ``check_derived_action`` on the assembled triple.  The conditions with
    two B axes scan their factor rows; the others read B only through
    dot, up, pow and its carrier, and scan the m x n tables of the triple."""
    W, factored = f.W, {r[0] for r in _PA_ACTION}
    found = dict(_factor_violations(f, _PA_ACTION))
    i, j = np.divmod(np.arange(len(f.E) * W), W)
    t = _Tables(*f.A, None, None, None, np.arange(len(i)),
                f.dotL[i][None], f.up[i].T[None], f.pow[j][None])
    rest = [c for c in _CONDITIONS if c[0] not in factored]
    found.update((v.condition, v.witness)
                 for v in _violations(t, rest, {"A": len(f.A.ar), "B": len(i)}))
    return CheckReport(tuple(Violation(c[0], found[c[0]]) for c in _CONDITIONS if c[0] in found))


def build_pa_object(obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET) -> PAObject:
    """Assemble addition (pentaction sum) and action (pentaction power)
    tables over the enumerated pentaction set and scan the reduced axioms.

    The tables and the scan work on the factor tables of Maps(A) x Pow(A),
    so the cubic axioms visit |Maps|^3 and |W|^3 cells, not m^3.  Failures
    are reported, not raised: when the base is perfect with zero weak
    stabilizer the scan must pass, otherwise the report documents how the
    construction degrades.
    """
    _check_budget(obj, budget)
    elements = _enumerate_pentactions_uncapped(obj)
    factors = _canonical_factors(obj)
    add, act = _assemble(factors)
    gaps = _closure_gaps(add, act)
    if gaps:
        return PAObject(obj, elements, None, CheckReport(gaps))
    report = _pa_report(factors, add, act)
    assembled = FiniteGwaObject(
        name=f"PA({obj.name})",
        order=len(elements),
        add=tuple(map(tuple, add.tolist())),
        act=tuple(map(tuple, act.tolist())),
        reduced=report.passed,
    )
    return PAObject(obj, elements, assembled, report)


def pa_action(pa: PAObject) -> DerivedActionTriple:
    """The componentwise action of the assembled object on its base:
    dot/up/pow read off each pentaction's own tables.  Carries the full
    22-condition report (diagnostic when the theorem hypotheses fail),
    scanned over the factor tables of ``build_pa_object``."""
    if pa.object is None:
        raise StructuralError(
            f"PA({pa.base.name}) did not close under its operations; "
            f"no carrier object to act with"
        )
    base = pa.base
    dot = tuple(p.dotL for p in pa.elements)
    up = tuple(zip(*(p.up for p in pa.elements)))
    pw = tuple(p.pow for p in pa.elements)
    return DerivedActionTriple(base, pa.object, dot, up, pw,
                               report=_pa_action_report(_canonical_factors(base)))


def _require_action_of(A: FiniteGwaObject, B: FiniteGwaObject, triple: DerivedActionTriple):
    if not (triple.A.table_equal(A) and triple.B.table_equal(B)):
        raise InputError(f"the triple is an action of {triple.B.name!r} on {triple.A.name!r}, "
                         f"not of {B.name!r} on {A.name!r}")


def _require_pa_of(A: FiniteGwaObject, pa: PAObject | None) -> PAObject:
    """``pa``, or PA(A) built when it is None; a PA of another base raises."""
    if pa is None:
        return build_pa_object(A)
    if not pa.base.table_equal(A):
        raise InputError(f"pa is PA({pa.base.name}), not PA({A.name})")
    return pa


def _require_verified(A: FiniteGwaObject, pa: PAObject) -> None:
    if pa.object is None or not pa.report.passed:
        raise StructuralError(
            f"PA({A.name}) is not a verified reduced object; "
            f"failing: {', '.join(pa.report.conditions())}"
        )


def represent(
    A: FiniteGwaObject,
    B: FiniteGwaObject,
    triple: DerivedActionTriple,
    pa: PAObject | None = None,
) -> GwaMorphism:
    """The factorization morphism B -> PA(A) for a verified derived action.

    Each b maps to the pentaction built from its action columns, with the
    right-dot and prefix components supplied by -b.  Raises StructuralError
    (naming the failing condition) when some image is not a pentaction of A
    or is missing from the enumerated set.
    """
    _require_action_of(A, B, triple)
    _validate_triple_shape(triple)
    pre = triple.report or check_derived_action(triple)
    if not pre.passed:
        raise InputError(
            f"represent needs a verified derived action; check fails "
            f"{', '.join(pre.conditions())}"
        )
    pa = _require_pa_of(A, pa)
    _require_verified(A, pa)
    f = _canonical_factors(pa.base)
    dot, up, pw = (np.asarray(x, dtype=np.intp) for x in (triple.dot, triple.up, triple.pow))
    phi = _element(f, _images(f, B._arrays.neg, dot[None], up[None])[0], f.find_pow(pw))
    for b in np.flatnonzero(phi < 0)[:1].tolist():
        tables = (dot[b], dot[B.neg[b]], up[:, b], up[:, B.neg[b]], pw[b])
        cand = Pentaction(A, *(tuple(x.tolist()) for x in tables))
        detail = (", ".join(check_pentaction(cand).conditions())
                  or "valid pentaction missing from the enumerated set")
        raise StructuralError(f"image of b={b} is not available in PA({A.name}): {detail}")
    return GwaMorphism(B, pa.object, tuple(phi.tolist()))


def verify_uniqueness(
    A: FiniteGwaObject,
    B: FiniteGwaObject,
    triple: DerivedActionTriple,
    phi: GwaMorphism,
    pa: PAObject | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Confirm phi is the only map B -> PA(A) reproducing the triple's three
    action components.

    The filter is independent for each b, so the satisfying maps are the
    product of the per-b sets M_b of elements whose (dotL, up, pow) equals
    the triple's column for b.  Every element of PA(A) has dotR = dotL^-1
    and upL = up^-1, so M_b holds at most the one element keyed by
    (dot[b], dot[b]^-1, up[., b], up[., b]^-1, pow[b]): one factor lookup
    per b.  The budget is charged m + |B|, not the m^|B| maps of an
    exhaustive search.  A malformed triple raises InputError.

    Violation ids: "uniq.phi" when phi itself fails the filter, "uniq.extra"
    (witness: the one satisfying map) when that map is not phi.
    """
    _require_action_of(A, B, triple)
    _validate_triple_shape(triple)
    pa = _require_pa_of(A, pa)
    _charge_uniqueness(len(pa.elements), B.order, budget)
    f = _canonical_factors(pa.base)
    dot, up, pw = (np.asarray(x, dtype=np.intp) for x in (triple.dot, triple.up, triple.pow))
    keys = np.concatenate([dot, np.argsort(dot, axis=1), up.T, np.argsort(up.T, axis=1)], axis=1)
    found = tuple(_element(f, f.find_map(keys), f.find_pow(pw)).tolist())
    target = tuple(phi.map)
    violations = []
    if -1 in found or target != found:
        violations.append(Violation("uniq.phi", target))
    if -1 not in found and target != found:
        violations.append(Violation("uniq.extra", found))
    return CheckReport(tuple(violations))


def _charge_uniqueness(m: int, columns: int, budget: int) -> None:
    """Refuse the m + |B| uniqueness lookup over the budget."""
    if m + columns > budget:
        raise BudgetExceededError(
            f"uniqueness lookup over {m} elements for {columns} columns "
            f"costs {m + columns}, exceeds budget {budget}"
        )


@dataclass(frozen=True)
class RepresentabilityReport:
    """Aggregate outcome of representability verification for one base.

    ``failures`` entries are JSON-ready dicts naming the stage that broke
    ("pa_rgwa", "pa_action", "represent", "morphism", "uniqueness"), the
    acting object and triple index where applicable, and the conditions."""

    base: str
    pa_order: int
    pa_rgwa: CheckReport
    pa_action: CheckReport | None
    pairs_checked: int
    failures: tuple[dict, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "pa_order": self.pa_order,
            "pa_rgwa": self.pa_rgwa.to_json(),
            "pa_action": self.pa_action.to_json() if self.pa_action else None,
            "representability": {
                "pairs_checked": self.pairs_checked,
                "all_passed": self.all_passed,
                "failures": list(self.failures),
            },
        }


def _failure(stage: str, B: FiniteGwaObject | None, t: int | None, conditions: list) -> dict:
    """One entry of ``RepresentabilityReport.failures``."""
    return {"stage": stage, "B": None if B is None else B.name, "triple": t,
            "conditions": conditions}


def _batch_failures(A, B, batch, pa, budget) -> list[dict]:
    """The represent, morphism and uniqueness failures of a batch of derived
    actions, in triple order, as ``verify_representability`` reports them.
    The images are one lookup per kept pair and row of W', and the two laws
    one ``core._passing`` batch; only a failing triple goes through
    ``represent`` or ``is_morphism``, to give its exact conditions.  Each
    M_b of ``verify_uniqueness`` is {phi(b)}, so uniqueness cannot fail; its
    m + |B| charge is made once, at the first triple with an image, as the
    per-triple loop makes it."""
    try:
        _require_verified(A, pa)
    except StructuralError as exc:
        return [_failure("represent", B, t, [str(exc)]) for t in range(len(batch.pair))]
    f = _canonical_factors(pa.base)
    i = _images(f, B._arrays.neg, batch.dots, batch.ups)[batch.pair]
    phi = _element(f, i, f.find_pow(batch.rows)[batch.J])
    represented = (phi >= 0).all(axis=1)
    if represented.any():
        try:
            _charge_uniqueness(len(pa.elements), B.order, budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"representability check for {A.name!r}, "
                f"B={B.name!r}, triple {int(represented.argmax())}: {exc}"
            ) from exc
    hom = _passing(_Hom(phi, B._arrays, pa.object._arrays), _HOM_LAWS, {"X": B.order})
    bad = np.flatnonzero(~represented | ~hom)
    failures = []
    for t, triple, image in zip(bad.tolist(), _batch_triples(A, B, batch, bad), phi[bad].tolist()):
        if not represented[t]:
            try:
                represent(A, B, triple, pa=pa)
            except (InputError, StructuralError) as exc:
                failures.append(_failure("represent", B, t, [str(exc)]))
        else:
            phi_t = GwaMorphism(B, pa.object, tuple(image))
            failures.append(_failure("morphism", B, t, list(is_morphism(phi_t).conditions())))
    return failures


def verify_representability(
    A: FiniteGwaObject,
    max_b_order: int = 3,
    budget: int = DEFAULT_BUDGET,
    acting_objects: list[FiniteGwaObject] | None = None,
) -> RepresentabilityReport:
    """Check that every derived action of every small corpus object on A
    factors uniquely through PA(A); aggregate, never crash.

    Runs the reduced scan of PA(A) and its canonical action first, then for
    each acting object B (order <= max_b_order) and each enumerated derived
    action: the factorization morphism exists, preserves both operations,
    and is unique under the per-b uniqueness lookup.  Each B's derived
    actions are checked as one batch (``_batch_failures``); the report is
    the one of ``represent``, ``is_morphism`` and ``verify_uniqueness`` run
    per triple.
    """
    failures: list[dict] = []
    pa = build_pa_object(A, budget=budget)
    if not pa.report.passed:
        failures.append(_failure("pa_rgwa", None, None, list(pa.report.conditions())))
    action_report: CheckReport | None = None
    if pa.object is not None:
        action = pa_action(pa)
        action_report = action.report
        if not action_report.passed:
            failures.append(_failure("pa_action", None, None, list(action_report.conditions())))
    pairs = 0
    if pa.object is not None:
        candidates = acting_objects if acting_objects is not None else standard_corpus()
        for B in candidates:
            if B.order > max_b_order:
                continue
            try:
                batch = _derived_action_batch(A, B, budget)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"representability check for {A.name!r}: {exc}"
                ) from exc
            pairs += len(batch.pair)
            failures.extend(_batch_failures(A, B, batch, pa, budget))
    return RepresentabilityReport(
        base=A.name,
        pa_order=len(pa.elements),
        pa_rgwa=pa.report,
        pa_action=action_report,
        pairs_checked=pairs,
        failures=tuple(failures),
    )
