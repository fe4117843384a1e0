"""The factor tables of PA(A) and the laws that can fail on them.

PA(A) is the product of the sorted map parts Maps and the sorted pow tables
W of the pentactions of A: element i*|W| + j has map part i and pow table
j.  A map part is its up table, since every pentaction has dotL = dotR = id
(p3, p3d and the lemma in the ``extensions`` docstring) and upL = up^-1
(p12).  So every dot is the identity, the pow part of a sum, p.pow +
p.dotL(q.pow), depends on the two pow tables alone, and p^q, which has
identity dots and p's up and upL, keeps p's map part.  The sum and power
are index arithmetic over the factors (``_PaFactors``):

    p+q = (up_q o up_p, pow_p + pow_q)
    p^q = (i_p, up_q o pow_p)

where each part is looked up among the factors at the cells read
(``_assemble``); no table of sums is kept.

For a reduced A and the canonical factors (``_canonical_factors``), no sum
or power leaves the set: Maps is the set of additive bijections passing p5
and p9, W the set of maps passing p4, p7 and p10, and both are closed, as
follows.  With dotL = id, p5 reads up(a^a') = up(a)^a', p9 a^up(a') =
a^a', p4 w(a+a') = w(a)^a' + w(a'), p7 w(a^a') = w(a), and p10 a^w(a') = a
for a' != 0.

- Maps under composition: up_q o up_p is an additive bijection; p5, since
  up_q(up_p(a^a')) = up_q(up_p(a)^a') = up_q(up_p(a))^a'; p9, since
  a^up_q(up_p(a')) = a^up_p(a') = a^a'.
- W under pointwise +: p4 by action.add, since A is abelian (below), so
  w(a)^a' + w(a') + w'(a)^a' + w'(a') = (w(a) + w'(a))^a' + w(a') + w'(a');
  p7 termwise; p10 by action.compose, a^(w(a') + w'(a')) =
  (a^w(a'))^w'(a') = a.
- W under up o w for up in Maps: p4 by the additivity of up and p5,
  up(w(a)^a' + w(a')) = up(w(a))^a' + up(w(a')); p7 directly; p10 by p9,
  a^up(w(a')) = a^w(a') = a.
- The walked sets are these sets.  Maps is walked from every additive
  bijection and W from every assignment of the additive generators, each
  extended by the p4 rule, so every map passing p4 is walked from its own
  generator values; each row is then checked at the generators, which the
  closure lemma of ``core._passing`` makes the full verdict.

So only three laws can fail: reduced.central on the map parts, and a9 and
a10 of the action of PA(A) on A.  Every other axiom and condition holds by
construction, as follows.

- The map and pow lookups are exact lookups of composition, pointwise sum
  and up o pow.  Composition and + are associative and every up is
  additive, so group.assoc, action.add and action.compose hold; so do 2A
  (the pow of a sum), 2B (the up of a sum) and 4B (the pow of a power).
- The identity is the least additive bijection and the zero table the least
  pow table, so map part 0 is the identity and pow table 0 is zero, and
  group.identity and action.zero hold.  Maps is a finite set of permutations
  closed under composition, and W a finite set of maps into A closed under
  pointwise +, so each is a group and group.inverse holds.
- reduced.collapse: both sides of x^(y^z) = x^y are (i_x, up_{i_y} o
  pow_{j_x}), since a power keeps the map part of its first argument.
- A reduced A is abelian: for y != 0, x -> x^y is a bijection, and
  reduced.central makes its values central.  So pointwise sums of pow tables
  commute (the pow part of reduced.central), and a6 holds.
- ga.1, ga.2, ga.3, 3A, 4A, a1, a2 and a3 read only the identity dot; a5
  compares up at b and at b^b2, which have the same map part; zeroB holds
  because map part 0 is the identity; 1A is the additivity of up; and 1B,
  3B, a4, a7 and a8 are p4, p5, p7, p9 and p10 of the factors.

The three laws are the rows of ``_OBSTRUCTIONS``, each giving its
obstruction as an element of A, 0 where it holds, from the up and pow tables
alone: central compares two compositions of up tables.  Their values are
the weak stabilizer's three families, so A has zero weak stabilizer exactly
when PA(A) passes them.  ``_factor_report``, ``analysis.weak_stabilizer``
and ``extensions._pow_products`` read the table, and ``_assemble`` builds
the m x m tables for the callers that read them.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

import numpy as np

from .core import (
    FiniteGwaObject,
    _chunked,
    _row_finder,
    _violations,
    object_cache,
)
from .pentactions import _map_factor, _pow_factor
from .report import CheckReport, Violation


# The factors of PA(A).  With p = (i, j) for map part i and pow table j,
#   p+q = (find_up(up_q o up_p), find_pow(pow_p + pow_q))
#   p^q = (i_p, find_pow(up_q o pow_p))
# where W is the number of pow tables.  up and pow are the up and pow tables,
# as (|Maps|, n) and (W, n) arrays, inv[i] the index of up_i^-1 (or -1), and
# A is A's _arrays.  find_up, find_map and find_pow give the index of an up
# table, of a map part (dotL, dotR, up, upL) and of a pow table, or -1.
_PaFactors = namedtuple("_PaFactors", "find_up inv W up pow A find_map find_pow")


def _pa_factors(obj: FiniteGwaObject, ups: Sequence, pows: Sequence) -> _PaFactors:
    """The factors of the sum and the power over the product of the map
    parts with up tables ``ups`` and the pow tables ``pows``."""
    n = obj.order
    up = np.asarray(ups, dtype=np.intp).reshape(len(ups), n)
    w = np.asarray(pows, dtype=np.intp).reshape(len(pows), n)
    find_up, ident = _row_finder(up), np.arange(n)

    def find_map(dl, dr, u, ul):
        """The map part (dl, dr, u, ul), each over the last axis, or -1: one
        is found only when dotL = dotR = id, upL = up^-1 and up is in ups."""
        ok = (dl == ident) & (dr == ident) & (np.take_along_axis(ul, u, -1) == ident)
        return np.where(ok.all(-1), find_up(u), -1)

    return _PaFactors(find_up, find_up(np.argsort(up, axis=1)), len(w), up, w, obj._arrays,
                      find_map, _row_finder(w))


@object_cache(maxsize=32)
def _canonical_factors(obj: FiniteGwaObject) -> _PaFactors:
    """The factors of PA(obj), over Maps(obj) and the pow factor, whose
    cached read-only arrays are its up and pow; both are defined on any
    validated obj, so the family walk of a non-reduced obj reads them too,
    and only ``PAObject`` requires a reduced obj."""
    return _pa_factors(obj, _map_factor(obj), _pow_factor(obj))


def _element(f: _PaFactors, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The index i * |W| + j of the element with map part i and pow table j,
    or -1 where either is -1."""
    return np.where((i < 0) | (j < 0), -1, i * f.W + j)


def _assemble(f: _PaFactors) -> tuple[np.ndarray, np.ndarray]:
    """The m x m sum and power tables, -1 where a result leaves the set.
    The map part of x+y, the index of up_y o up_x, and the pow parts of x+y
    and x^y, the indices of pow_x + pow_y and of up_y o pow_x, are looked up
    once per pair of factors, in chunks of the first factor."""
    (M, n), W = f.up.shape, f.W
    i = np.arange(M)
    map_add = _chunked(M, M * n, lambda s: f.find_up(f.up[i[:, None], f.up[s, None]]))
    pow_add = _chunked(W, W * n, lambda s: f.find_pow(f.A.add[f.pow[s, None], f.pow]))
    pow_act = _chunked(W, M * n, lambda s: f.find_pow(f.up[i[:, None], f.pow[s, None]]))
    add = _element(f, map_add[:, None, :, None], pow_add[None, :, None, :])
    act = _element(f, i[:, None, None, None], pow_act[None, :, :, None])
    return tuple(np.broadcast_to(x, (M, W, M, W)).reshape(M * W, M * W) for x in (add, act))


# The laws that can fail (module docstring), as (id, axes, value, witness):
# value(up, pow, A, s), over up tables (|Maps|, n), pow tables (W, n) and A's
# _arrays, is the obstruction in A, 0 where the law holds, over the axes I
# (map parts), J (pow tables) and A, in witness order, the leading index in
# the slice s; witness(f, *cell) is the witness in PA(A) and A, where element
# i*W + j has map part i and pow table j.  The action rows read B = PA(A)
# through the factors, up[a][x] = up[i_x][a] and pow[x] = pow[j_x]; their
# unread map parts are 0.  x - y is add[:, neg][x, y].
_OBSTRUCTIONS = (
    # x^y + z = z + x^y for y != 0 on the map parts, up_i3 o up_i1 = up_i1 o
    # up_i3, since x^y has x's map part; the witness y is 1, the least nonzero
    # element, which exists where the row can fail, on two map parts.
    ("reduced.central", "IIA",
     lambda up, pw, A, s: A.add[:, A.neg][up[:, up[s]].swapaxes(0, 1), up[s][:, up]],
     lambda f, i1, i3, a: (i1 * f.W, 1, i3 * f.W)),
    # pow[b][pow[b2][a]] = 0
    ("a9", "JJA", lambda up, pw, A, s: pw[s][:, pw], lambda f, j1, j2, a: (j1, j2, a)),
    # pow[b][up[a][b2]] = pow[b][a]
    ("a10", "JAI", lambda up, pw, A, s: A.add[:, A.neg][pw[s][:, up.T], pw[s, :, None]],
     lambda f, j1, a, i3: (j1, a, i3 * f.W)),
)


def _factor_report(f: _PaFactors, rows) -> CheckReport:
    """Scan rows of ``_OBSTRUCTIONS`` for nonzero values with
    ``core._violations``: each failing row's id and minimal witness."""
    sizes = {"I": len(f.up), "J": f.W, "A": len(f.A.ar)}
    witness = {cid: w for cid, _, _, w in rows}
    masks = [(cid, axes, lambda f, s, value=value: value(f.up, f.pow, f.A, s) != 0)
             for cid, axes, value, _ in rows]
    return CheckReport(tuple(Violation(v.condition, witness[v.condition](f, *v.witness))
                             for v in _violations(f, masks, sizes)))


def _pa_report(f: _PaFactors) -> CheckReport:
    """The reduced-axiom scan of PA(A): the same report as ``check_axioms``
    on the assembled tables, since only the reduced.central row can fail."""
    return _factor_report(f, _OBSTRUCTIONS[:1])


def _pa_action_report(f: _PaFactors) -> CheckReport:
    """The 22-condition report of the action of PA(A) on A: the same as
    ``check_derived_action`` on the assembled triple, since only a9 and a10
    can fail."""
    return _factor_report(f, _OBSTRUCTIONS[1:])
