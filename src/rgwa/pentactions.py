"""Pentactions: five self-maps of a reduced object and their algebra.

A pentaction assigns to an abstract acting element b the five value tables

    dotL[a] = b . a     dotR[a] = a . b     up[a] = a ^ b
    upL[a]  = prefix action of b on a       pow[a] = b ^ a

subject to nineteen closure conditions scanned by :func:`check_pentaction`
(ids p1..p12 with d-suffixed duals).  Conditions p8/p8d are conditional:
their commutation clause applies only when the corresponding map moves at
least one element.  In p5d a prefix exponent taken from the carrier itself
is read as exponentiation by the additive inverse, matching the convention
that the prefix action of b is the action of -b.

The set of all pentactions of A is produced by :func:`enumerate_pentactions`
(pruned) and :func:`enumerate_pentactions_bruteforce` (independent oracle,
tiny orders only), both in the canonical lexicographic order of the
concatenated tables dotL | dotR | up | upL | pow.  Only p4, p7 and p10 read
pow, and they read nothing else, so the set is the product of its map parts
(dotL, dotR, up, upL) and its pow tables; the pruned enumerator scans the two
factors apart, visiting |ups|*|dotLs| + n^|gens| candidates, while its budget
is still charged the |ups|*|dotLs|*n^|gens| candidates of the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import (
    FiniteGwaObject,
    _Arrays,
    _generator_walk,
    _image_chunks,
    _v_additive,
    _violated,
    additive_bijections,
    generating_words,
    invert_map,
    is_perfect,
    object_cache,
)
from .errors import BudgetExceededError, InputError, UnsupportedInputError
from .report import CheckReport, Violation

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
# Condition scan.  Every condition is a vectorized violation mask over a
# batch of candidates; the scalar checker reuses the same masks with a batch
# of one and extracts lexicographically minimal witnesses.
# ---------------------------------------------------------------------------


def _bg3(f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-candidate gather: out[i, a, b] = f[i, idx[i, a, b]]."""
    return f[np.arange(len(f))[:, None, None], idx]


def _bg2(f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-candidate gather: out[i, a] = f[i, idx[i, a]]."""
    return f[np.arange(len(f))[:, None], idx]


def _v_act_first_invariant(t: _Arrays, f: np.ndarray) -> np.ndarray:
    # f(a) ^ a' = a ^ a'  for a' != 0
    v = t.act[f] != t.act[None, :, :]
    v[:, :, 0] = False
    return v


def _v_pow_cocycle(t: _Arrays, pw: np.ndarray) -> np.ndarray:
    # pow(a + a') = pow(a) ^ a' + pow(a')
    return pw[:, t.add] != t.add[t.act[pw], pw[:, None, :]]


def _v_up_dot_exchange(t: _Arrays, up: np.ndarray, dotL: np.ndarray) -> np.ndarray:
    # up(a ^ dotL(a')) = up(a) ^ a'
    inner = t.act[t.ar[None, :, None], dotL[:, None, :]]
    return _bg3(up, inner) != t.act[up]


def _v_upL_dotR_exchange(t: _Arrays, upL: np.ndarray, dotR: np.ndarray) -> np.ndarray:
    # dual of the exchange law; carrier prefix exponents negate:
    # upL(a ^ (-dotR(a'))) = upL(a) ^ (-a')
    inner = t.act[t.ar[None, :, None], t.neg[dotR][:, None, :]]
    return _bg3(upL, inner) != t.act[upL][:, :, t.neg]


def _v_fixes_action_values(t: _Arrays, f: np.ndarray) -> np.ndarray:
    # f(a ^ a') = a ^ a'  for a' != 0
    v = f[:, t.act] != t.act[None, :, :]
    v[:, :, 0] = False
    return v


def _v_pow_collapses_action(t: _Arrays, pw: np.ndarray) -> np.ndarray:
    # pow(a ^ a') = pow(a)
    return pw[:, t.act] != pw[:, :, None]


def _v_central_if_moving(t: _Arrays, f: np.ndarray) -> np.ndarray:
    # images commute with everything, provided f moves at least one element
    hyp = (f != t.ar[None, :]).any(axis=1)
    comm = t.add[f[:, :, None], t.ar[None, None, :]] != t.add[t.ar[None, None, :], f[:, :, None]]
    return comm & hyp[:, None, None]


def _v_exponent_equivalent(t: _Arrays, f: np.ndarray) -> np.ndarray:
    # a ^ f(a') = a ^ a'
    return t.act[t.ar[None, :, None], f[:, None, :]] != t.act[None, :, :]


def _v_pow_exponent_trivial(t: _Arrays, pw: np.ndarray) -> np.ndarray:
    # a ^ pow(a') = a  for a' != 0
    v = t.act[t.ar[None, :, None], pw[:, None, :]] != t.ar[None, :, None]
    v[:, :, 0] = False
    return v


def _v_mutual_inverse(t: _Arrays, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    # g(f(a)) = a = f(g(a)); witness is (a,)
    return (_bg2(g, f) != t.ar[None, :]) | (_bg2(f, g) != t.ar[None, :])


_Slots = tuple[str, ...]
_CONDITIONS: tuple[tuple[str, _Slots, Callable[..., np.ndarray]], ...] = (
    ("p1", ("dotL",), _v_additive),
    ("p1d", ("dotR",), _v_additive),
    ("p2", ("up",), _v_additive),
    ("p2d", ("upL",), _v_additive),
    ("p3", ("dotL",), _v_act_first_invariant),
    ("p3d", ("dotR",), _v_act_first_invariant),
    ("p4", ("pow",), _v_pow_cocycle),
    ("p5", ("up", "dotL"), _v_up_dot_exchange),
    ("p5d", ("upL", "dotR"), _v_upL_dotR_exchange),
    ("p6", ("dotL",), _v_fixes_action_values),
    ("p6d", ("dotR",), _v_fixes_action_values),
    ("p7", ("pow",), _v_pow_collapses_action),
    ("p8", ("up",), _v_central_if_moving),
    ("p8d", ("upL",), _v_central_if_moving),
    ("p9", ("up",), _v_exponent_equivalent),
    ("p9d", ("upL",), _v_exponent_equivalent),
    ("p10", ("pow",), _v_pow_exponent_trivial),
    ("p11", ("dotL", "dotR"), _v_mutual_inverse),
    ("p12", ("up", "upL"), _v_mutual_inverse),
)

CONDITION_IDS = tuple(cid for cid, _, _ in _CONDITIONS)

# No condition couples pow to the four maps: p4, p7 and p10 read pow alone
# and the other sixteen never read it.  So the pentactions are exactly the
# maps passing the sixteen times the pow tables passing the three, and the
# enumerator scans the two factors apart.
_MAP_SLOTS = ("dotL", "dotR", "up", "upL")
_Table = tuple[int, ...]
_Maps = tuple[_Table, _Table, _Table, _Table]  # one table per map slot
_MAP_CONDITIONS = tuple(c for c in _CONDITIONS if "pow" not in c[1])
_POW_CONDITIONS = tuple(c for c in _CONDITIONS if c[1] == ("pow",))


def _slot_arrays(cands: Sequence[Pentaction]) -> dict[str, np.ndarray]:
    return {
        slot: np.asarray([getattr(c, slot) for c in cands], dtype=np.int64)
        for slot in ("dotL", "dotR", "up", "upL", "pow")
    }


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
    t = cand.parent._arrays
    slots = _slot_arrays([cand])
    violations = []
    for cid, needed, fn in _CONDITIONS:
        mask = fn(t, *(slots[s] for s in needed))
        if mask.any():
            first = np.argwhere(mask)[0]
            violations.append(Violation(cid, tuple(int(v) for v in first[1:])))
    return CheckReport(tuple(violations))


def check_pentactions_batch(cands: Sequence[Pentaction]) -> np.ndarray:
    """Boolean pass vector for a batch of candidates over one parent."""
    if not cands:
        return np.zeros(0, dtype=bool)
    for c in cands:
        _same_parent(cands[0], c)
        _validate_shape(c)
    return _passing(cands)


def _passing(cands: Sequence[Pentaction]) -> np.ndarray:
    """Pass vector of a non-empty batch of in-range candidates over one parent."""
    return _passing_slots(cands[0].parent._arrays, _slot_arrays(cands), _CONDITIONS)


def _passing_slots(
    t: _Arrays,
    slots: dict[str, np.ndarray],
    conditions: Sequence[tuple[str, _Slots, Callable[..., np.ndarray]]],
) -> np.ndarray:
    """Pass vector of the conditions over candidates given as slot arrays;
    a condition reading a slot that is not given raises ``KeyError``."""
    ok = np.ones(len(next(iter(slots.values()))), dtype=bool)
    for _, needed, fn in conditions:
        ok &= ~_violated(fn(t, *(slots[s] for s in needed)))
    return ok


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
    inverse, dotL likewise (restricted to the identity when obj is perfect,
    since the dot components then fix every element), and pow is generated
    from its values on additive generators.  No condition links pow to the
    four maps, so the set is the product of the maps passing the sixteen
    map conditions and the pow tables passing p4, p7 and p10: the search
    visits |ups|*|dotLs| + n^|gens| candidates and builds only kept values.
    The full condition scan still filters every factor, so the pruning is
    completeness-preserving.

    The budget is charged the size of the product candidate space,
    |ups|*|dotLs|*n^|gens|, computed from the input itself, so refusals do
    not depend on what happens to be cached.
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
    ups = additive_bijections(obj)
    dotl_count = 1 if is_perfect(obj) else len(ups)
    total = len(ups) * dotl_count * rows
    if total > budget:
        raise BudgetExceededError(
            f"pentaction enumeration over {obj.name!r} needs {total} candidate "
            f"visits, budget is {budget}"
        )


@object_cache(maxsize=32)
def _pow_factor(obj: FiniteGwaObject) -> tuple[_Table, ...]:
    """The pow tables passing p4, p7 and p10, sorted; by p4 they are crossed
    maps, walked from all n^|gens| generator images."""
    n, t = obj.order, obj._arrays
    gens, steps = generating_words(obj)

    def rule(prev, img, step):
        # f(x + g) = f(x)^g + f(g), so f(x - g) = (f(x) - f(g))^(-g)
        g = gens[step[2]]
        if step[3] > 0:
            return t.add[t.act[prev, g], img]
        return t.act[t.add[prev, t.neg[img]], t.neg[g]]

    kept: list[list[int]] = []
    for images in _image_chunks(n, len(gens), n * n):
        rows = _generator_walk(steps, images, 0, rule)
        kept.extend(rows[_passing_slots(t, {"pow": rows}, _POW_CONDITIONS)].tolist())
    return tuple(sorted(map(tuple, kept)))


@object_cache(maxsize=32)
def _pentaction_factors(obj: FiniteGwaObject) -> tuple[tuple[_Maps, ...], tuple[_Table, ...]]:
    """The two factors of the pentaction set, each sorted: the map parts
    (dotL, dotR, up, upL) passing the conditions that do not read pow, and
    the pow tables passing the conditions that read only pow."""
    n, t = obj.order, obj._arrays
    ups = additive_bijections(obj)
    dotls = [tuple(range(n))] if is_perfect(obj) else ups
    maps = [
        (dotl, invert_map(dotl), up, invert_map(up)) for up in ups for dotl in dotls
    ]
    kept = []
    step = max(1, core._CHUNK_CELLS // (n * n))  # the largest map masks are (k, n, n)
    for lo in range(0, len(maps), step):
        chunk = maps[lo:lo + step]
        arrays = np.asarray(chunk, dtype=np.int64).reshape(len(chunk), len(_MAP_SLOTS), n)
        ok = _passing_slots(t, dict(zip(_MAP_SLOTS, arrays.swapaxes(0, 1))), _MAP_CONDITIONS)
        kept.extend(c for c, good in zip(chunk, ok) if good)
    return tuple(sorted(kept)), _pow_factor(obj)


@object_cache(maxsize=32)
def _enumerate_pentactions_uncapped(obj: FiniteGwaObject) -> tuple[Pentaction, ...]:
    # Maps outer, pow inner is the canonical key order: the map parts are
    # distinct and of equal length, and each factor is sorted.
    maps, rows = _pentaction_factors(obj)
    return tuple(Pentaction(obj, *m, pw) for m in maps for pw in rows)


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
    t = obj._arrays
    maps = np.asarray(list(product(range(n), repeat=n)), dtype=np.int64)
    m = len(maps)

    slot_names = ("dotL", "dotR", "up", "upL", "pow")
    unary_ok = {s: np.ones(m, dtype=bool) for s in slot_names}
    pair_ok: dict[tuple[str, str], np.ndarray] = {}
    left = np.repeat(maps, m, axis=0)
    right = np.tile(maps, (m, 1))
    for cid, needed, fn in _CONDITIONS:
        if len(needed) == 1:
            unary_ok[needed[0]] &= ~_violated(fn(t, maps))
        else:
            ok = ~_violated(fn(t, left, right)).reshape(m, m)
            pair_ok[needed] = pair_ok.get(needed, True) & ok

    # Each axis is indexed only by the maps passing its slot's unary
    # conditions; the pair verdicts are combined over that smaller product.
    axes = [np.flatnonzero(unary_ok[s]) for s in slot_names]
    dl, dr, u, ul, _ = axes
    valid = np.ones(tuple(len(axis) for axis in axes), dtype=bool)
    valid &= pair_ok[("dotL", "dotR")][np.ix_(dl, dr)][:, :, None, None, None]
    valid &= pair_ok[("up", "dotL")][np.ix_(u, dl)].T[:, None, :, None, None]
    valid &= pair_ok[("upL", "dotR")][np.ix_(ul, dr)].T[None, :, None, :, None]
    valid &= pair_ok[("up", "upL")][np.ix_(u, ul)][None, None, :, :, None]

    return [
        Pentaction(obj, *(tuple(maps[axis[i]].tolist()) for axis, i in zip(axes, cell)))
        for cell in np.argwhere(valid)
    ]
