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
concatenated tables dotL | dotR | up | upL | pow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import (
    FiniteGwaObject,
    additive_bijections,
    extend_crossed_map,
    generating_words,
    invert_map,
    is_perfect,
    object_cache,
)
from .errors import BudgetExceededError, InputError, UnsupportedInputError
from .report import CheckReport, Violation

DEFAULT_BUDGET = 100_000_000

_BATCH_CHUNK = 8192


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


@dataclass(frozen=True)
class _Ctx:
    n: int
    add: np.ndarray
    act: np.ndarray
    neg: np.ndarray
    ar: np.ndarray


def _ctx(obj: FiniteGwaObject) -> _Ctx:
    return _Ctx(
        n=obj.order,
        add=np.asarray(obj.add, dtype=np.int64),
        act=np.asarray(obj.act, dtype=np.int64),
        neg=np.asarray(obj.neg, dtype=np.int64),
        ar=np.arange(obj.order, dtype=np.int64),
    )


def _bg3(f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-candidate gather: out[i, a, b] = f[i, idx[i, a, b]]."""
    return f[np.arange(len(f))[:, None, None], idx]


def _bg2(f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-candidate gather: out[i, a] = f[i, idx[i, a]]."""
    return f[np.arange(len(f))[:, None], idx]


def _v_additive(t: _Ctx, f: np.ndarray) -> np.ndarray:
    # f(a + a') = f(a) + f(a')
    return f[:, t.add] != t.add[f[:, :, None], f[:, None, :]]


def _v_act_first_invariant(t: _Ctx, f: np.ndarray) -> np.ndarray:
    # f(a) ^ a' = a ^ a'  for a' != 0
    v = t.act[f] != t.act[None, :, :]
    v[:, :, 0] = False
    return v


def _v_pow_cocycle(t: _Ctx, pw: np.ndarray) -> np.ndarray:
    # pow(a + a') = pow(a) ^ a' + pow(a')
    return pw[:, t.add] != t.add[t.act[pw], pw[:, None, :]]


def _v_up_dot_exchange(t: _Ctx, up: np.ndarray, dotL: np.ndarray) -> np.ndarray:
    # up(a ^ dotL(a')) = up(a) ^ a'
    inner = t.act[t.ar[None, :, None], dotL[:, None, :]]
    return _bg3(up, inner) != t.act[up]


def _v_upL_dotR_exchange(t: _Ctx, upL: np.ndarray, dotR: np.ndarray) -> np.ndarray:
    # dual of the exchange law; carrier prefix exponents negate:
    # upL(a ^ (-dotR(a'))) = upL(a) ^ (-a')
    inner = t.act[t.ar[None, :, None], t.neg[dotR][:, None, :]]
    return _bg3(upL, inner) != t.act[upL][:, :, t.neg]


def _v_fixes_action_values(t: _Ctx, f: np.ndarray) -> np.ndarray:
    # f(a ^ a') = a ^ a'  for a' != 0
    v = f[:, t.act] != t.act[None, :, :]
    v[:, :, 0] = False
    return v


def _v_pow_collapses_action(t: _Ctx, pw: np.ndarray) -> np.ndarray:
    # pow(a ^ a') = pow(a)
    return pw[:, t.act] != pw[:, :, None]


def _v_central_if_moving(t: _Ctx, f: np.ndarray) -> np.ndarray:
    # images commute with everything, provided f moves at least one element
    hyp = (f != t.ar[None, :]).any(axis=1)
    comm = t.add[f[:, :, None], t.ar[None, None, :]] != t.add[t.ar[None, None, :], f[:, :, None]]
    return comm & hyp[:, None, None]


def _v_exponent_equivalent(t: _Ctx, f: np.ndarray) -> np.ndarray:
    # a ^ f(a') = a ^ a'
    return t.act[t.ar[None, :, None], f[:, None, :]] != t.act[None, :, :]


def _v_pow_exponent_trivial(t: _Ctx, pw: np.ndarray) -> np.ndarray:
    # a ^ pow(a') = a  for a' != 0
    v = t.act[t.ar[None, :, None], pw[:, None, :]] != t.ar[None, :, None]
    v[:, :, 0] = False
    return v


def _v_mutual_inverse(t: _Ctx, f: np.ndarray, g: np.ndarray) -> np.ndarray:
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
    t = _ctx(cand.parent)
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
    t = _ctx(cands[0].parent)
    ok = np.ones(len(cands), dtype=bool)
    slots = _slot_arrays(cands)
    for _, needed, fn in _CONDITIONS:
        mask = fn(t, *(slots[s] for s in needed))
        ok &= ~mask.reshape(len(cands), -1).any(axis=1)
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
    from its values on additive generators.  The full condition scan filters
    the surviving candidates, so the pruning is completeness-preserving.

    The budget is compared against the candidate count implied by the input
    itself, so refusals do not depend on what happens to be cached.
    """
    _require_reduced(obj)
    n = obj.order
    ups = additive_bijections(obj)
    dotl_count = 1 if is_perfect(obj) else len(ups)
    gens, _ = generating_words(obj)
    total = len(ups) * dotl_count * n ** len(gens)
    if total > budget:
        raise BudgetExceededError(
            f"pentaction enumeration over {obj.name!r} needs {total} candidate "
            f"visits, budget is {budget}"
        )
    return list(_enumerate_pentactions_uncapped(obj))


@object_cache(maxsize=32)
def _enumerate_pentactions_uncapped(obj: FiniteGwaObject) -> tuple[Pentaction, ...]:
    n = obj.order
    ups = additive_bijections(obj)
    identity = tuple(range(n))
    dotls = [identity] if is_perfect(obj) else ups
    gens, steps = generating_words(obj)
    rows = [
        extend_crossed_map(obj, gens, steps, images)
        for images in product(range(n), repeat=len(gens))
    ]
    found: list[Pentaction] = []
    chunk: list[Pentaction] = []

    def flush() -> None:
        if not chunk:
            return
        for cand, ok in zip(chunk, _passing(chunk)):
            if ok:
                found.append(cand)
        chunk.clear()

    for up in ups:
        upl = invert_map(up)
        for dotl in dotls:
            dotr = invert_map(dotl)
            for pw in rows:
                chunk.append(Pentaction(obj, dotl, dotr, up, upl, pw))
                if len(chunk) >= _BATCH_CHUNK:
                    flush()
    flush()
    found.sort(key=Pentaction.key)
    return tuple(found)


def enumerate_pentactions_bruteforce(obj: FiniteGwaObject) -> list[Pentaction]:
    """Independent oracle: filter every n^(5n) five-tuple of self-maps.

    Per-condition verdicts are evaluated exhaustively over single maps and
    map pairs and combined over the full five-fold product, which is the
    unpruned filter in factored form.  Refused above order 3.
    """
    _require_reduced(obj)
    n = obj.order
    if n > 3:
        raise InputError(
            f"brute-force pentaction enumeration is refused for order {n} > 3"
        )
    t = _ctx(obj)
    maps = np.asarray(list(product(range(n), repeat=n)), dtype=np.int64)
    m = len(maps)

    slot_names = ("dotL", "dotR", "up", "upL", "pow")
    unary_ok = {s: np.ones(m, dtype=bool) for s in slot_names}
    pair_ok: dict[tuple[str, str], np.ndarray] = {}
    left = np.repeat(maps, m, axis=0)
    right = np.tile(maps, (m, 1))
    for cid, needed, fn in _CONDITIONS:
        if len(needed) == 1:
            mask = fn(t, maps)
            unary_ok[needed[0]] &= ~mask.reshape(m, -1).any(axis=1)
        else:
            mask = fn(t, left, right)
            ok = ~mask.reshape(m * m, -1).any(axis=1)
            key = needed
            pair_ok[key] = pair_ok.get(key, np.ones((m, m), dtype=bool)) & ok.reshape(m, m)

    valid = (
        unary_ok["dotL"][:, None, None, None, None]
        & unary_ok["dotR"][None, :, None, None, None]
        & unary_ok["up"][None, None, :, None, None]
        & unary_ok["upL"][None, None, None, :, None]
        & unary_ok["pow"][None, None, None, None, :]
    )
    valid &= pair_ok[("dotL", "dotR")][:, :, None, None, None]
    valid &= pair_ok[("up", "dotL")].T[:, None, :, None, None]
    valid &= pair_ok[("upL", "dotR")].T[None, :, None, :, None]
    valid &= pair_ok[("up", "upL")][None, None, :, :, None]

    out = []
    for dl, dr, u, ul, pw in np.argwhere(valid):
        out.append(
            Pentaction(
                obj,
                tuple(int(v) for v in maps[dl]),
                tuple(int(v) for v in maps[dr]),
                tuple(int(v) for v in maps[u]),
                tuple(int(v) for v in maps[ul]),
                tuple(int(v) for v in maps[pw]),
            )
        )
    return out
