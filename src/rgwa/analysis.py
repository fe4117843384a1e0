"""Structure analysis: derived subobject, perfectness, stabilizers, and the
chain of quotients annihilating the weak stabilizer.

The weak stabilizer reads the two factors of the pentaction set as they are
cached, read-only (rows, n) index arrays, with no copy or conversion."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .core import (
    ElementSet,
    FiniteGwaObject,
    _slices,
    derived_subobject,
    is_perfect,
    quotient_map,
    subobject_closure,
)
from .errors import UnsupportedInputError, WorkbenchError
from .pa import _OBSTRUCTIONS
from .pentactions import DEFAULT_BUDGET, _check_budget, _map_factor, _pow_factor

__all__ = [
    "derived_subobject",
    "is_perfect",
    "stabilizer",
    "weak_stabilizer",
    "NoetherChain",
    "noether_quotient",
    "analysis_report",
]


def stabilizer(obj: FiniteGwaObject) -> ElementSet:
    """Exponents fixing every element: {s : a^s = a for all a}."""
    members = tuple(
        s
        for s in range(obj.order)
        if all(obj.act[a][s] == a for a in range(obj.order))
    )
    return ElementSet(obj, members)


def weak_stabilizer(obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET) -> ElementSet:
    """The raw (not closed-up) set of the three obstruction families

        p.pow(q.pow(a)),
        p.pow(q.up(a)) - p.pow(a),
        up-of-(p+q) at a minus up-of-(q+p) at a,

    ranging over all pentactions p, q and all carrier elements a.  Soundness
    of a "zero weak stabilizer" claim needs the full pentaction set, so the
    budget is charged as for its exhaustive enumeration.  That set is the
    product of its map parts and its pow tables, so the families are the
    values of the rows a9, a10 and reduced.central of ``pa._OBSTRUCTIONS``
    over the up tables U and the pow tables W, the cached read-only arrays
    ``pentactions._map_factor`` and ``_pow_factor``, and the set is {0}
    exactly when PA(obj) passes them.  Each row is evaluated over the chunks
    of ``core._slices`` and its values marked in a length-n table, so memory
    stays O((|U|+|W|)*n).  The set only grows, so the scan stops once every
    element is marked.
    """
    _check_budget(obj, budget)
    n = obj.order
    seen = np.zeros(n, dtype=bool)
    up, pw = _map_factor(obj), _pow_factor(obj)
    sizes = {"I": len(up), "J": len(pw), "A": n}
    for _, axes, value, _ in _OBSTRUCTIONS:
        for s in _slices(sizes[axes[0]], prod(sizes[x] for x in axes[1:])):
            seen[value(up, pw, obj._arrays, s)] = True
            if seen.all():
                return ElementSet(obj, tuple(range(n)))
    return ElementSet(obj, tuple(int(v) for v in np.flatnonzero(seen)))


@dataclass(frozen=True)
class NoetherChain:
    """Strictly increasing subgroups W_1 < W_2 < ... of the base carrier and
    the final quotient C = A/W_n with weak stabilizer contained in {0}.

    An empty chain means the base object already had zero weak stabilizer.
    """

    base: FiniteGwaObject
    subgroups: tuple[ElementSet, ...]
    quotient: FiniteGwaObject


def noether_quotient(obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET) -> NoetherChain:
    """Iteratively quotient out the subgroup generated by the weak stabilizer
    until it vanishes.

    Each round pulls the current quotient's weak stabilizer back along the
    projection, enlarges the subgroup it generates, and re-quotients the
    original carrier.  Strict growth of the subgroups bounds the rounds by
    the carrier order.
    """
    if not (obj.is_abelian and obj.has_trivial_action):
        raise UnsupportedInputError(
            f"the quotient chain is only computed for abelian trivial-action "
            f"carriers; {obj.name!r} is not one"
        )
    chain: list[ElementSet] = []
    current = obj
    projection = tuple(range(obj.order))
    w_members: tuple[int, ...] = ()
    for _ in range(obj.order + 1):
        wst = weak_stabilizer(current, budget=budget)
        if wst.is_zero():
            return NoetherChain(obj, tuple(chain), current)
        pullback = {x for x in range(obj.order) if projection[x] in wst}
        w_next = subobject_closure(obj, pullback | set(w_members))
        if len(w_next) <= len(w_members):
            raise WorkbenchError(
                f"quotient chain for {obj.name!r} failed to grow; this cannot "
                f"happen for a finite carrier"
            )
        chain.append(w_next)
        w_members = w_next.members
        tau = quotient_map(obj, w_next)
        current = tau.target
        projection = tau.map
    raise WorkbenchError(f"quotient chain for {obj.name!r} did not terminate")


def analysis_report(obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET) -> dict:
    """JSON-ready structure summary; the chain entry is null for carriers
    where the quotient procedure is out of scope."""
    wst = weak_stabilizer(obj, budget=budget)
    out = {
        "perfect": is_perfect(obj),
        "stabilizer": list(stabilizer(obj).members),
        "weak_stabilizer": list(wst.members),
        "noether_chain": None,
    }
    if obj.is_abelian and obj.has_trivial_action:
        chain = noether_quotient(obj, budget=budget)
        out["noether_chain"] = {
            "subgroup_orders": [len(w) for w in chain.subgroups],
            "quotient_order": chain.quotient.order,
        }
    return out
