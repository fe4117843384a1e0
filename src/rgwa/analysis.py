"""Structure analysis: derived subobject, perfectness, stabilizers, and the
chain of quotients annihilating the weak stabilizer.

The weak stabilizer reads the two factors of the pentaction set from their
one cache, the record of ``pentactions._canonical_factors``, as read-only
(rows, n) index arrays, with no copy or conversion."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .core import (
    ElementSet,
    FiniteGwaObject,
    _require_abelian_trivial,
    _slices,
    _stabilizer,
    derived_subobject,
    is_perfect,
    quotient_by_subgroup,
)
from .pa import _OBSTRUCTIONS
from .pentactions import DEFAULT_BUDGET, _canonical_factors, _check_budget

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
    """Exponents fixing every element: {s : a^s = a for all a}, the columns
    s of the act table that equal the carrier (``core._stabilizer``)."""
    return ElementSet(obj, tuple(_stabilizer(obj).tolist()))


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
    over the up tables U and the pow tables W, the read-only up and pow of
    A's factor record (``pentactions._canonical_factors``), and the set is
    {0} exactly when PA(obj) passes them.  Each row is evaluated over the
    chunks of ``core._slices`` and its values marked in a length-n table, so
    memory stays O((|U|+|W|)*n).  The set only grows, so the scan stops once
    every element is marked.
    """
    _check_budget(obj, budget)
    n = obj.order
    seen = np.zeros(n, dtype=bool)
    f = _canonical_factors(obj)
    up, pw = f.up, f.pow
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

    An empty chain means the base object already had zero weak stabilizer;
    ``noether_quotient`` never gives more than one subgroup (its lemma).
    """

    base: FiniteGwaObject
    subgroups: tuple[ElementSet, ...]
    quotient: FiniteGwaObject


def noether_quotient(obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET) -> NoetherChain:
    """Quotient out the subgroup generated by the weak stabilizer until it
    vanishes, which takes at most one step.

    Lemma: on a nonzero reduced abelian carrier A with trivial action, the
    weak stabilizer is A.  With a trivial action p7 and p10 hold for every
    map and p4 is additivity, so the pow tables W are End(A) and hold the
    identity; taking p = q = id, the first family p.pow(q.pow(a)) is a, for
    every a.  So A/A is the zero object, whose weak stabilizer is {0}, and
    the chain is (A,), or empty when A is already zero.  The budget is
    charged as for the one scan of A that the lemma replaces, which also
    refuses a carrier not validated with the reduced checks.
    """
    _require_abelian_trivial(obj, "the quotient chain")
    _check_budget(obj, budget)
    if obj.order == 1:
        return NoetherChain(obj, (), obj)
    whole = ElementSet(obj, tuple(obj.elements))
    return NoetherChain(obj, (whole,), quotient_by_subgroup(obj, whole))


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
