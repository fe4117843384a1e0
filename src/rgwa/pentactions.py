"""Pentactions: five self-maps of a reduced object and their algebra.

A pentaction assigns to an abstract acting element b the five value tables

    dotL[a] = b . a     dotR[a] = a . b     up[a] = a ^ b
    upL[a]  = prefix action of b on a       pow[a] = b ^ a

subject to nineteen closure conditions scanned by :func:`check_pentaction`
(ids p1..p12 with d-suffixed duals).  Conditions p8/p8d are conditional:
their commutation clause applies only when the corresponding map moves at
least one element.  In p5d a prefix exponent taken from the carrier itself
is read as exponentiation by the additive inverse, matching the convention
that the prefix action of b is the action of -b.  The conditions are
candidate rows, the format of the derived-action table, run by
``core._violations`` on one candidate and by ``core._passing`` on a batch.

The set of all pentactions of A is produced by :func:`enumerate_pentactions`
(pruned) and :func:`enumerate_pentactions_bruteforce` (independent oracle,
tiny orders only), both in the canonical lexicographic order of the
concatenated tables dotL | dotR | up | upL | pow.  Only p4, p7 and p10 read
pow, and they read nothing else, so the set is the product of its map parts
(dotL, dotR, up, upL) and its pow tables.  By p3 and p3d, dotL and dotR are
the identity (the lemma in ``rgwa.extensions``), so the map parts are the
additive bijections up passing the map conditions, each with upL = up^-1.
The pruned enumerator scans the two factors apart, visiting |ups| + n^|gens|
candidates, while its budget is still charged the |ups|*n^|gens| candidates
of the product.

Every walked map part (id, id, up, up^-1), up an additive bijection, meets
p1, p1d, p2, p2d, p3, p3d, p6, p6d, p11 and p12 by construction
(``_MAP_BY_CONSTRUCTION``), so the map factor scans only p5, p5d, p8, p8d,
p9 and p9d (``_MAP_WALKED``).  Both factors check their rows at the additive
generators only (the closure lemma of ``core._passing``).  The set of
leading values a at which a row holds is closed under + given: for p5, p5d,
p8 and p8d, the additivity of up or upL; for p9, p9d and p10, action.add;
for p4, associativity, action.add and action.compose; for p7, p4 (an earlier
row) and reduced.collapse, so on an object validated without the reduced
checks the pow factor scans in full.  ``check_pentaction``,
``check_pentactions_batch`` and the brute-force oracle scan every cell.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import (
    FiniteGwaObject,
    _generator_lead,
    _generator_walk,
    _image_chunks,
    _passing,
    _pick,
    _v_additive,
    _violations,
    additive_bijections,
    generating_words,
    invert_map,
    object_cache,
)
from .errors import BudgetExceededError, InputError, UnsupportedInputError
from .report import CheckReport

DEFAULT_BUDGET = 100_000_000


@dataclass(frozen=True)
class Pentaction:
    """Five value tables over a common parent object.

    Values returned by the enumerators have passed the full condition scan;
    values produced by the sum/power/negation operations are candidates whose
    validity depends on properties of the parent (perfectness), so callers
    re-check when they need a guarantee.
    """

    parent: FiniteGwaObject
    dotL: tuple[int, ...]
    dotR: tuple[int, ...]
    up: tuple[int, ...]
    upL: tuple[int, ...]
    pow: tuple[int, ...]

    def key(self) -> tuple[int, ...]:
        """Canonical sort key: the concatenated value tables."""
        return self.dotL + self.dotR + self.up + self.upL + self.pow

    def tables(self) -> dict[str, tuple[int, ...]]:
        return {
            "dotL": self.dotL,
            "dotR": self.dotR,
            "up": self.up,
            "upL": self.upL,
            "pow": self.pow,
        }


def _require_reduced(obj: FiniteGwaObject) -> None:
    if not obj.reduced:
        raise UnsupportedInputError(
            f"pentactions are defined over reduced objects only; "
            f"{obj.name!r} was not validated with the reduced checks"
        )


def _same_parent(p: Pentaction, q: Pentaction) -> None:
    if p.parent is not q.parent and not p.parent.table_equal(q.parent):
        raise InputError("pentactions live over different parent objects")


# ---------------------------------------------------------------------------
# Condition scan.
# ---------------------------------------------------------------------------


# The parent's _arrays and a batch of k pentactions as (k, n) slot arrays; a
# slot that no scanned condition reads may be None.
_SLOTS = ("dotL", "dotR", "up", "upL", "pow")
_Tables = namedtuple("_Tables", ("add", "act", "neg", "ar") + _SLOTS, defaults=(None,) * 5)


def _tables(obj: FiniteGwaObject, cands: Sequence[Pentaction] = (), **slots) -> _Tables:
    """The tables of a batch given as pentactions or as named slot arrays."""
    if cands:
        slots = {slot: [getattr(c, slot) for c in cands] for slot in _SLOTS}
    return _Tables(*obj._arrays, **{s: np.asarray(v, dtype=np.intp) for s, v in slots.items()})


def _v_act_first_invariant(t, f: np.ndarray, s) -> np.ndarray:
    # f(a) ^ a' = a ^ a'  for a' != 0
    return (t.act[f[:, s]] != t.act[s]) & (t.ar > 0)


def _v_fixes_action_values(t, f: np.ndarray, s) -> np.ndarray:
    # f(a ^ a') = a ^ a'  for a' != 0
    return (f[:, t.act[s]] != t.act[s]) & (t.ar > 0)


def _v_central_if_moving(t, f: np.ndarray, s) -> np.ndarray:
    # images commute with everything, provided f moves at least one element
    moves = (f != t.ar).any(axis=1)
    return (t.add[f[:, s]] != t.add.T[f[:, s]]) & moves[:, None, None]


def _v_exponent_equivalent(t, f: np.ndarray, s) -> np.ndarray:
    # a ^ f(a') = a ^ a'
    return t.act[t.ar[s, None], f[:, None]] != t.act[s]


def _v_mutual_inverse(t, f: np.ndarray, g: np.ndarray, s) -> np.ndarray:
    # g(f(a)) = a = f(g(a))
    return (_pick(g, f[:, s]) != t.ar[s]) | (_pick(f, g[:, s]) != t.ar[s])


# (id, index axes in witness order, slots read, violation mask), in report
# order; every slot read carries a leading candidate axis k.
_CONDITIONS = (
    ("p1", "AA", ("dotL",), lambda t, s: _v_additive(t, t.dotL, s)),
    ("p1d", "AA", ("dotR",), lambda t, s: _v_additive(t, t.dotR, s)),
    ("p2", "AA", ("up",), lambda t, s: _v_additive(t, t.up, s)),
    ("p2d", "AA", ("upL",), lambda t, s: _v_additive(t, t.upL, s)),
    ("p3", "AA", ("dotL",), lambda t, s: _v_act_first_invariant(t, t.dotL, s)),
    ("p3d", "AA", ("dotR",), lambda t, s: _v_act_first_invariant(t, t.dotR, s)),
    # pow(a + a') = pow(a) ^ a' + pow(a')
    ("p4", "AA", ("pow",),
     lambda t, s: t.pow[:, t.add[s]] != t.add[t.act[t.pow[:, s]], t.pow[:, None]]),
    # up(a ^ dotL(a')) = up(a) ^ a'
    ("p5", "AA", ("up", "dotL"),
     lambda t, s: _pick(t.up, t.act[t.ar[s, None], t.dotL[:, None]]) != t.act[t.up[:, s]]),
    # the dual exchange law; carrier prefix exponents negate:
    # upL(a ^ (-dotR(a'))) = upL(a) ^ (-a')
    ("p5d", "AA", ("upL", "dotR"),
     lambda t, s: _pick(t.upL, t.act[t.ar[s, None], t.neg[t.dotR][:, None]])
     != t.act[t.upL[:, s]][:, :, t.neg]),
    ("p6", "AA", ("dotL",), lambda t, s: _v_fixes_action_values(t, t.dotL, s)),
    ("p6d", "AA", ("dotR",), lambda t, s: _v_fixes_action_values(t, t.dotR, s)),
    # pow(a ^ a') = pow(a)
    ("p7", "AA", ("pow",), lambda t, s: t.pow[:, t.act[s]] != t.pow[:, s, None]),
    ("p8", "AA", ("up",), lambda t, s: _v_central_if_moving(t, t.up, s)),
    ("p8d", "AA", ("upL",), lambda t, s: _v_central_if_moving(t, t.upL, s)),
    ("p9", "AA", ("up",), lambda t, s: _v_exponent_equivalent(t, t.up, s)),
    ("p9d", "AA", ("upL",), lambda t, s: _v_exponent_equivalent(t, t.upL, s)),
    # a ^ pow(a') = a  for a' != 0
    ("p10", "AA", ("pow",),
     lambda t, s: (t.act[t.ar[s, None], t.pow[:, None]] != t.ar[s, None]) & (t.ar > 0)),
    ("p11", "A", ("dotL", "dotR"), lambda t, s: _v_mutual_inverse(t, t.dotL, t.dotR, s)),
    ("p12", "A", ("up", "upL"), lambda t, s: _v_mutual_inverse(t, t.up, t.upL, s)),
)

CONDITION_IDS = tuple(c[0] for c in _CONDITIONS)

# No condition couples pow to the four maps: p4, p7 and p10 read pow alone
# and the other sixteen never read it.  So the pentactions are exactly the
# maps passing the sixteen times the pow tables passing the three, and the
# enumerator scans the two factors apart.
_Table = tuple[int, ...]
_MAP_CONDITIONS = tuple(c for c in _CONDITIONS if "pow" not in c[2])
_POW_CONDITIONS = tuple(c for c in _CONDITIONS if c[2] == ("pow",))

# The map conditions that every walked map part (id, id, up, up^-1), up an
# additive bijection, meets by construction; the map factor scans the rest.
_MAP_BY_CONSTRUCTION = ("p1", "p1d", "p2", "p2d", "p3", "p3d", "p6", "p6d", "p11", "p12")
_MAP_WALKED = tuple(c for c in _MAP_CONDITIONS if c[0] not in _MAP_BY_CONSTRUCTION)


def _validate_shape(cand: Pentaction) -> None:
    n = cand.parent.order
    for slot, table in cand.tables().items():
        if len(table) != n:
            raise InputError(f"{slot} has length {len(table)}, expected {n}")
        for a, v in enumerate(table):
            if not 0 <= v < n:
                raise InputError(f"{slot}[{a}] = {v} is out of range 0..{n - 1}")


def check_pentaction(cand: Pentaction) -> CheckReport:
    """Scan all nineteen conditions; one minimal witness per violation."""
    _validate_shape(cand)
    obj = cand.parent
    return CheckReport(tuple(_violations(_tables(obj, [cand]), _CONDITIONS, {"A": obj.order})))


def check_pentactions_batch(cands: Sequence[Pentaction]) -> np.ndarray:
    """Boolean pass vector for a batch of candidates over one parent."""
    if not cands:
        return np.zeros(0, dtype=bool)
    for c in cands:
        _same_parent(cands[0], c)
        _validate_shape(c)
    obj = cands[0].parent
    return _passing(_tables(obj, cands), _CONDITIONS, {"A": obj.order})


# ---------------------------------------------------------------------------
# The distinguished zero and the operations on pentactions.
# ---------------------------------------------------------------------------


def zero_pentaction(obj: FiniteGwaObject) -> Pentaction:
    """Identity dot and exponent components with a constant-zero pow table."""
    _require_reduced(obj)
    ident = tuple(range(obj.order))
    return Pentaction(obj, ident, ident, ident, ident, (0,) * obj.order)


def pent_add(p: Pentaction, q: Pentaction) -> Pentaction:
    """Componentwise sum: compositions on the four map components and
    pow(a) = p.pow(a) + p.dotL(q.pow(a))."""
    _same_parent(p, q)
    obj = p.parent
    rng = obj.elements
    return Pentaction(
        obj,
        dotL=tuple(p.dotL[q.dotL[a]] for a in rng),
        dotR=tuple(q.dotR[p.dotR[a]] for a in rng),
        up=tuple(q.up[p.up[a]] for a in rng),
        upL=tuple(p.upL[q.upL[a]] for a in rng),
        pow=tuple(obj.add[p.pow[a]][p.dotL[q.pow[a]]] for a in rng),
    )


def pent_neg(p: Pentaction) -> Pentaction:
    """Opposite element: swapped dot/exponent pairs and
    pow(a) = -(p.dotR(p.pow(a)))."""
    obj = p.parent
    return Pentaction(
        obj,
        dotL=p.dotR,
        dotR=p.dotL,
        up=p.upL,
        upL=p.up,
        pow=tuple(obj.neg[p.dotR[p.pow[a]]] for a in obj.elements),
    )


def pent_pow(p: Pentaction, q: Pentaction) -> Pentaction:
    """Power operation: identity dots, p's exponent components, and
    pow(a) = q.up(p.pow(q.dotL(a)))."""
    _same_parent(p, q)
    obj = p.parent
    ident = tuple(range(obj.order))
    return Pentaction(
        obj,
        dotL=ident,
        dotR=ident,
        up=p.up,
        upL=p.upL,
        pow=tuple(q.up[p.pow[q.dotL[a]]] for a in obj.elements),
    )


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def enumerate_pentactions(
    obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET
) -> list[Pentaction]:
    """All pentactions of obj, canonically ordered.

    Pruned search: up ranges over additive bijections with upL forced as its
    inverse, dotL and dotR are the identity (p3 and p3d force it), and pow
    is generated from its values on additive generators.  No condition links
    pow to the four maps, so the set is the product of the maps passing the
    sixteen map conditions and the pow tables passing p4, p7 and p10: the
    search visits |ups| + n^|gens| candidates and builds only kept values.
    Each factor's filter skips only rows that its walked candidates meet by
    construction and checks the others at the additive generators, which
    the closure lemma of ``core._passing`` makes the full verdict, so the
    pruning is completeness-preserving.

    The budget is charged the size of the product candidate space,
    |ups|*n^|gens|, computed from the input itself, so refusals do not
    depend on what happens to be cached.
    """
    _check_budget(obj, budget)
    return list(_enumerate_pentactions_uncapped(obj))


def _check_budget(obj: FiniteGwaObject, budget: int) -> None:
    """Refuse an enumeration whose candidate space exceeds the budget.

    The space is at least n^|gens| (the identity is an additive bijection),
    so that bound is checked before the n^|gens| additive-bijection search.
    """
    _require_reduced(obj)
    n = obj.order
    gens, _ = generating_words(obj)
    rows = n ** len(gens)
    if rows > budget:
        raise BudgetExceededError(
            f"pentaction enumeration over {obj.name!r} needs at least {rows} "
            f"candidate visits (refused before the additive-bijection search), "
            f"budget is {budget}"
        )
    total = len(additive_bijections(obj)) * rows
    if total > budget:
        raise BudgetExceededError(
            f"pentaction enumeration over {obj.name!r} needs {total} candidate "
            f"visits, budget is {budget}"
        )


def _pow_walk(obj: FiniteGwaObject):
    """The crossed maps walked from all n^|gens| generator images, in
    product order, one (k, n) chunk at a time."""
    n, t = obj.order, obj._arrays
    gens, steps = generating_words(obj)

    def rule(prev, img, step):
        # f(x + g) = f(x)^g + f(g), so f(x - g) = (f(x) - f(g))^(-g)
        g = gens[step[2]]
        if step[3] > 0:
            return t.add[t.act[prev, g], img]
        return t.act[t.add[prev, t.neg[img]], t.neg[g]]

    for images in _image_chunks(n, len(gens), n * n):
        yield _generator_walk(steps, images, 0, rule)


@object_cache(maxsize=32)
def _pow_factor(obj: FiniteGwaObject) -> tuple[_Table, ...]:
    """The pow tables passing p4, p7 and p10, sorted; by p4 they are crossed
    maps, so the walked ones are filtered.  On a reduced obj each row is
    checked at the generators (``core._passing``); p7 closes under + only
    through reduced.collapse, so on another obj the rows scan in full."""
    lead = {"A": _generator_lead(obj)} if obj.reduced else None
    kept: list[list[int]] = []
    for rows in _pow_walk(obj):
        keep = _passing(_tables(obj, pow=rows), _POW_CONDITIONS, {"A": obj.order}, lead)
        kept.extend(rows[keep].tolist())
    return tuple(sorted(map(tuple, kept)))


@object_cache(maxsize=32)
def _pentaction_factors(obj: FiniteGwaObject) -> tuple[tuple[_Table, ...], tuple[_Table, ...]]:
    """The two factors of the pentaction set, each sorted: the up tables of
    the map parts passing the conditions that do not read pow, and the pow
    tables passing the conditions that read only pow.  A map part is
    (id, id, up, up^-1): p3 and p3d force the identity dots, p12 the upL."""
    t = _map_parts(obj)
    keep = _passing(t, _MAP_WALKED, {"A": obj.order}, {"A": _generator_lead(obj)})
    return tuple(sorted(map(tuple, t.up[keep].tolist()))), _pow_factor(obj)


def _map_parts(obj: FiniteGwaObject) -> _Tables:
    """The walked map parts (id, id, up, up^-1), one per additive bijection
    up, as a batch; each meets the ``_MAP_BY_CONSTRUCTION`` rows."""
    ups = np.asarray(additive_bijections(obj), dtype=np.intp)
    ident = np.broadcast_to(np.arange(obj.order), ups.shape)
    maps = [ident, ident, ups, np.argsort(ups, axis=1)]
    return _tables(obj, **dict(zip(_SLOTS, maps)))


@object_cache(maxsize=32)
def _enumerate_pentactions_uncapped(obj: FiniteGwaObject) -> tuple[Pentaction, ...]:
    # Maps outer, pow inner is the canonical key order: the dots are the
    # identity, the up tables are distinct and each factor is sorted.
    ups, rows = _pentaction_factors(obj)
    ident = tuple(range(obj.order))
    return tuple(Pentaction(obj, ident, ident, up, upl, pw)
                 for up, upl in zip(ups, map(invert_map, ups)) for pw in rows)


def enumerate_pentactions_bruteforce(obj: FiniteGwaObject) -> list[Pentaction]:
    """Independent oracle: filter every n^(5n) five-tuple of self-maps.

    Per-condition verdicts are evaluated exhaustively over single maps and
    map pairs and combined over the five-fold product of the maps passing
    each slot's single-map conditions, which is the unpruned filter in
    factored form.  Refused above order 3.
    """
    _require_reduced(obj)
    n = obj.order
    if n > 3:
        raise InputError(
            f"brute-force pentaction enumeration is refused for order {n} > 3"
        )
    maps = np.asarray(list(product(range(n), repeat=n)), dtype=np.intp)
    m = len(maps)
    pairs = (np.repeat(maps, m, axis=0), np.tile(maps, (m, 1)))
    ok = {}  # per tuple of slots, the verdict of the conditions reading exactly those
    for needed in dict.fromkeys(c[2] for c in _CONDITIONS):
        cands = dict(zip(needed, pairs if len(needed) == 2 else (maps,)))
        rows = [c for c in _CONDITIONS if c[2] == needed]
        ok[needed] = _passing(_tables(obj, **cands), rows, {"A": n}).reshape((m,) * len(needed))

    # Each axis is indexed only by the maps passing its slot's unary
    # conditions; the pair verdicts are combined over that smaller product.
    axes = [np.flatnonzero(ok[(s,)]) for s in _SLOTS]
    dl, dr, u, ul, _ = axes
    valid = np.ones(tuple(len(axis) for axis in axes), dtype=bool)
    valid &= ok[("dotL", "dotR")][np.ix_(dl, dr)][:, :, None, None, None]
    valid &= ok[("up", "dotL")][np.ix_(u, dl)].T[:, None, :, None, None]
    valid &= ok[("upL", "dotR")][np.ix_(ul, dr)].T[None, :, None, :, None]
    valid &= ok[("up", "upL")][np.ix_(u, ul)][None, None, :, :, None]

    return [
        Pentaction(obj, *(tuple(maps[axis[i]].tolist()) for axis, i in zip(axes, cell)))
        for cell in np.argwhere(valid)
    ]
