"""The factor tables of PA(A) and the checks that read them.

PA(A) is the product of the sorted map parts Maps (dotL, dotR, up, upL) and
the sorted pow tables W of the pentactions of A: element i*|W| + j has map
part i and pow table j.  Every map part has the same dotL, the identity (p3
and the lemma in the ``extensions`` docstring), so the pow part of a sum,
p.pow + p.dotL(q.pow), depends on the two pow tables alone.  The sum and
power are index arithmetic over the factor tables Cm, P, E and Q
(``_PaFactors``), and every check here reads those factors, never an m x m
table:

- the five cubic axioms are a map-part row and a pow-part row each
  (``_PA_AXIOMS``), over at most |Maps|^3 or |W|^2 * max(|Maps|, |W|) cells;
- closure, group.identity, group.inverse and action.zero read the factors
  of each element, as (|Maps|, |W|) masks;
- of the 22 conditions of the action of PA(A) on A, the ten with two B axes
  are factor rows (``_PA_ACTION``), over at most |W|^2 * n or |Maps|^2 * n
  cells, and the twelve with one read B only through its map part or only
  through its pow table, so they scan |Maps| * n^2 or |W| * n^2 cells;
- the morphism laws read PA(A) through ``_factor_arrays``.

``_assemble`` builds the m x m tables for the callers that read them.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

import numpy as np

from .core import (
    _AXIOMS,
    FiniteGwaObject,
    _Arrays,
    _chunked,
    _row_finder,
    _violations,
    object_cache,
)
from .errors import InputError
from .extensions import _CONDITIONS, _Tables
from .pentactions import _pentaction_factors
from .report import CheckReport, Violation


# The factor tables of PA(A).  With p = (i, j) for map part i and pow table j,
#   p+q = (Cm[i_p, i_q], P[j_p, j_q])   p^q = (E[i_p], Q[i_q, j_p])
# where W is the number of pow tables.  A result outside the factors is -1.
# The action of PA(A) on A reads the one dotL row of the map parts, their up
# maps and the pow tables, as (n,), (|Maps|, n) and (W, n) arrays, and A's
# _arrays; the axiom scan does not need them.  find_map and find_pow give the
# index of a map part (a dotL | dotR | up | upL row) and of a pow table.
_PaFactors = namedtuple("_PaFactors", "Cm P E Q W dot up pow A find_map find_pow",
                        defaults=(None,) * 6)


def _pa_factors(obj: FiniteGwaObject, maps: Sequence, pows: Sequence) -> _PaFactors:
    """The factor tables of the sum and the power over the product of the
    map parts ``maps`` (dotL, dotR, up, upL) and the pow tables ``pows``.
    The map parts share one dotL row (the identity when there are none);
    map parts with two raise InputError.  Cm, P and Q are one lookup each
    over all their cells, in chunks of p."""
    n, add = obj.order, obj._arrays.add
    dl, dr, up, ul = np.asarray(maps, dtype=np.intp).reshape(len(maps), 4, n).swapaxes(0, 1)
    w = np.asarray(pows, dtype=np.intp).reshape(len(pows), n)
    dot = dl[0] if len(dl) else np.arange(n)
    if (dl != dot).any():
        raise InputError(f"the map parts of PA({obj.name}) do not share one dotL")
    find_map = _row_finder(np.concatenate([dl, dr, up, ul], axis=1))
    find_pow = _row_finder(w)
    M = len(dl)
    p, q, j = np.arange(M)[:, None, None], np.arange(M)[:, None], np.arange(len(w))[:, None]
    # map part of p+q: p.dotL(q.dotL), q.dotR(p.dotR), q.up(p.up), p.upL(q.upL)
    Cm = _chunked(M, M * 4 * n, lambda s: find_map(np.concatenate(
        [dl[p[s], dl], dr[q, dr[s, None]], up[q, up[s, None]], ul[p[s], ul]], axis=2)))
    # pow part of p+q: p.pow + dotL(q.pow), in chunks of p.pow
    P = _chunked(len(w), len(w) * n, lambda s: find_pow(add[w[s, None], dot[w]]))
    # p^q: identity dots with p's up and upL, and pow q.up(p.pow(dotL))
    ident = np.broadcast_to(np.arange(n), dl.shape)
    E = find_map(np.concatenate([ident, ident, up, ul], axis=1))
    Q = _chunked(M, len(w) * n, lambda s: find_pow(up[p[s], w[j, dot]]))
    return _PaFactors(Cm, P, E, Q, len(w), dot, up, w, obj._arrays, find_map, find_pow)


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
    Cm, P = f.Cm[:, None, :, None], f.P[None, :, None, :]
    E, Q = f.E[:, None, None, None], f.Q.T[None, :, :, None]
    add = np.where((Cm < 0) | (P < 0), -1, Cm * f.W + P)
    act = np.where((E < 0) | (Q < 0), -1, E * f.W + Q)
    shape = (len(f.E), f.W, len(f.E), f.W)
    return (np.broadcast_to(add, shape).reshape(m, m),
            np.broadcast_to(act, shape).reshape(m, m))


class _FactorTable:
    """An m x m table of PA(A) as a lookup op[x, y] over index arrays x and
    y, computed by ``cell(i_x, j_x, i_y, j_y)`` from their factors."""

    def __init__(self, W: int, cell):
        self.W, self.cell = W, cell

    def __getitem__(self, xy):
        return self.cell(*np.divmod(xy[0], self.W), *np.divmod(xy[1], self.W))


def _factor_arrays(f: _PaFactors) -> _Arrays:
    """PA(A) as the add and act of an ``_Arrays``, for the morphism laws."""
    return _Arrays(
        _FactorTable(f.W, lambda ix, jx, iy, jy: f.Cm[ix, iy] * f.W + f.P[jx, jy]),
        _FactorTable(f.W, lambda ix, jx, iy, jy: f.E[ix] * f.W + f.Q[iy, jx]), None, None)


def _closure_gaps(f: _PaFactors) -> tuple[Violation, ...]:
    """The first cell (x, y) in row-major order of the sum and of the power
    table whose result leaves the set, as "pa.closure.add" / "pa.closure.act".
    Per table, the rows x = (i, j) holding a gap, then the cells y = (i2, j2)
    of the first of them, are (|Maps|, |W|) masks over the factors."""
    Cm, P, E, Q = (x < 0 for x in (f.Cm, f.P, f.E, f.Q))
    tables = (
        ("pa.closure.add", Cm.any(1)[:, None] | P.any(1), lambda i, j: Cm[i][:, None] | P[j]),
        ("pa.closure.act", E[:, None] | Q.any(0), lambda i, j: E[i] | Q[:, j, None]),
    )
    gaps = []
    for condition, rows, cells in tables:
        if rows.any():
            x = int(rows.argmax())
            y = np.broadcast_to(cells(*divmod(x, f.W)), rows.shape).argmax()
            gaps.append(Violation(condition, (x, int(y))))
    return tuple(gaps)


# The five cubic axioms over the factor tables, each a map-part row and a
# pow-part row (reduced.collapse has no map part: both sides have map part
# E[i1]).  A row is (id, variables, violation formula) where x, y, z are
# (i1, j1), (i2, j2), (i3, j3) and the variables are listed in witness
# order.  P reads the pow tables alone, so the pow-part rows scan a map part
# only where Q reads one.
_PA_AXIOMS = (
    # (x+y)+z = x+(y+z)
    ("group.assoc", "i1 i2 i3",
     lambda f, i1, i2, i3: f.Cm[f.Cm[i1, i2], i3] != f.Cm[i1, f.Cm[i2, i3]]),
    ("group.assoc", "j1 j2 j3",
     lambda f, j1, j2, j3: f.P[f.P[j1, j2], j3] != f.P[j1, f.P[j2, j3]]),
    # (g+g')^h = g^h + g'^h
    ("action.add", "i1 i2",
     lambda f, i1, i2: f.E[f.Cm[i1, i2]] != f.Cm[f.E[i1], f.E[i2]]),
    ("action.add", "j1 j2 i3",
     lambda f, j1, j2, i3: f.Q[i3, f.P[j1, j2]] != f.P[f.Q[i3, j1], f.Q[i3, j2]]),
    # g^(h+h') = (g^h)^h'
    ("action.compose", "i1", lambda f, i1: f.E[i1] != f.E[f.E[i1]]),
    ("action.compose", "j1 i2 i3",
     lambda f, j1, i2, i3: f.Q[f.Cm[i2, i3], j1] != f.Q[i3, f.Q[i2, j1]]),
    # x^y + z = z + x^y for y != 0.  No row reads j2, so the witness takes
    # j2 = 1 when i2 = 0; with |W| = 1 that is index 1 = (1, 0), and there
    # the pow row cannot fail.
    ("reduced.central", "i1 i3", lambda f, i1, i3: f.Cm[f.E[i1], i3] != f.Cm[i3, f.E[i1]]),
    ("reduced.central", "j1 i2 j3",
     lambda f, j1, i2, j3: f.P[f.Q[i2, j1], j3] != f.P[j3, f.Q[i2, j1]]),
    # x^(y^z) = x^y
    ("reduced.collapse", "j1 i2", lambda f, j1, i2: f.Q[f.E[i2], j1] != f.Q[i2, j1]),
)


# The derived-action conditions with two B axes, with B = PA(A) read
# through the factors: dot[x] = dot, up[a][x] = up[i_x][a] and
# pow[x] = pow[j_x].  Rows are (id, variables, violation formula) as in
# _PA_AXIOMS, over the condition's witness slots in ``extensions._CONDITIONS``;
# ak is the element of A in slot k.
_PA_ACTION = (
    # dot[b + b2][a] = dot[b][dot[b2][a]]
    ("ga.1", "a3", lambda f, a3: f.dot[a3] != f.dot[f.dot[a3]]),
    # pow[b + b2][a] = pow[b][a] + dot[b][pow[b2][a]]
    ("2A", "j1 j2 a3",
     lambda f, j1, j2, a3: f.pow[f.P[j1, j2], a3] != f.A.add[f.pow[j1, a3], f.dot[f.pow[j2, a3]]]),
    # up[dot[b][a]][b2] = up[a][b2]
    ("4A", "a2 i3", lambda f, a2, i3: f.up[i3, f.dot[a2]] != f.up[i3, a2]),
    # up[a][b + b2] = up[up[a][b]][b2]
    ("2B", "a1 i2 i3", lambda f, a1, i2, i3: f.up[f.Cm[i2, i3], a1] != f.up[i3, f.up[i2, a1]]),
    # up[pow[b][dot[b2][a]]][b2] = pow[b ^ b2][a]
    ("4B", "j1 i2 a3",
     lambda f, j1, i2, a3: f.up[i2, f.pow[j1, f.dot[a3]]] != f.pow[f.Q[i2, j1], a3]),
    # dot[b][up[a][b2]] = up[a][b2]  for b2 != 0
    ("a2", "a2 i3", lambda f, a2, i3: f.dot[f.up[i3, a2]] != f.up[i3, a2]),
    # dot[b ^ b2][a] = a  for b2 != 0
    ("a3", "a3", lambda f, a3: f.dot[a3] != a3),
    # up[a][b ^ b2] = up[a][b]
    ("a5", "a1 i2", lambda f, a1, i2: f.up[f.E[i2], a1] != f.up[i2, a1]),
    # pow[b][pow[b2][a]] = 0
    ("a9", "j1 j2 a3", lambda f, j1, j2, a3: f.pow[j1, f.pow[j2, a3]] != 0),
    # pow[b][up[a][b2]] = pow[b][a]
    ("a10", "j1 a2 i3", lambda f, j1, a2, i3: f.pow[j1, f.up[i3, a2]] != f.pow[j1, a2]),
)

# The witness slot whose element must be nonzero, per factor-row condition.
_NONZERO_SLOT = {"reduced.central": "2", "a2": "3", "a3": "2"}


def _row_mask(formula, names: list[str], sizes: list[int], slot):
    """A ``core._violations`` mask of one factor row: each variable is an
    open-grid axis of the given size.  When witness slot ``slot`` must be
    nonzero, the cells with no nonzero element there are cleared: map part 0
    when |W| = 1, or every cell when the slot is unread and m = 1."""
    def mask(f, s):
        axes = [np.arange(size) for size in sizes]
        axes[0] = axes[0][s]
        grid = dict(zip(names, np.ix_(*axes)))
        hits = formula(f, *grid.values())
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
    PA(A).  Unread indices are 0, except in the slot of ``_NONZERO_SLOT``,
    which reads at most ik: there j = 1 when i = 0, the least nonzero
    element with that map part, and a cell with no such element (|W| = 1,
    or m = 1 when the slot is unread) is cleared in the mask."""
    W = f.W
    sizes = {"I": len(f.E), "J": W, "A": 0 if f.A is None else len(f.A.ar)}
    for cid, names, formula in rows:
        names = names.split()
        axes = "".join({"a": "A", "j": "J"}.get(v[0], "I") for v in names)
        slot = _NONZERO_SLOT.get(cid)
        mask = _row_mask(formula, names, [sizes[a] for a in axes], slot)
        hit = next(_violations(f, [(cid, axes, mask)], sizes), None)
        if hit is None:
            continue
        cell = dict(zip(names, hit.witness))
        witness = []
        for k in "123":
            i, j = cell.get(f"i{k}", 0), cell.get(f"j{k}", 0)
            witness.append(cell.get(f"a{k}", i * W + (1 if k == slot and i == 0 else j)))
        yield cid, tuple(witness)


def _element_axioms(f: _PaFactors):
    """group.identity, group.inverse and action.zero of PA(A), each a
    (|Maps|, |W|) mask of the failing elements x = (i, j) whose first hit in
    row-major order is the witness x = i*|W| + j.  The zero is (0, 0), and
    y = (i2, j2) is an inverse of x when i2 is an inverse of i in Cm and j2
    one of j in P."""
    i, j = np.arange(len(f.E)), np.arange(f.W)
    inverse, P0 = (f.Cm == 0) & (f.Cm.T == 0), f.P == 0
    masks = (
        ("group.identity", ((f.Cm[0] != i) | (f.Cm[:, 0] != i))[:, None]
         | (f.P[0] != j) | (f.P[:, 0] != j)),
        ("group.inverse", ~(inverse.any(1)[:, None] & (P0 & P0.T).any(1))),
        ("action.zero", (f.E != i)[:, None] | (f.Q[0] != j)),
    )
    return [(cid, (int(mask.argmax()),)) for cid, mask in masks if mask.any()]


def _pa_report(f: _PaFactors) -> CheckReport:
    """The reduced-axiom scan of PA(A), the same report as ``check_axioms``
    on the assembled tables.  The five cubic axioms scan their factor rows,
    and an axiom's witness is the least of its rows'; the other three are
    ``_element_axioms``."""
    found: dict[str, tuple[int, ...]] = dict(_element_axioms(f))
    for cid, witness in _factor_violations(f, _PA_AXIOMS):
        found[cid] = min(found.get(cid, witness), witness)
    return CheckReport(tuple(Violation(a[0], found[a[0]]) for a in _AXIOMS if a[0] in found))


def _pa_action_report(f: _PaFactors) -> CheckReport:
    """The 22-condition report of the action of PA(A) on A, the same as
    ``check_derived_action`` on the assembled triple.  The conditions with
    two B axes scan their factor rows.  The other twelve read B only through
    dot and up, which depend on the map part i alone, or only through pow,
    which depends on the pow table j alone: each scans its ``_CONDITIONS``
    row with the map parts or the pow tables in place of B.  The least
    element with map part i is i*|W|, or 1 in the nonzero B slot of a6 when
    i = 0 (a6 is cleared there when |W| = 1); with pow table j it is j."""
    M, W = len(f.E), f.W
    found = dict(_factor_violations(f, _PA_ACTION))
    factored = {r[0] for r in _PA_ACTION}
    dot = np.broadcast_to(f.dot, (1, M, len(f.dot)))
    by_map = _Tables(*f.A, None, None, None, np.arange(M), dot, f.up.T[None], None)
    by_pow = _Tables(*f.A, None, None, None, np.arange(W), None, None, f.pow[None])
    for cid, axes, reads, mask in _CONDITIONS:
        if cid in factored:
            continue
        t, size, scale = (by_pow, W, 1) if "pow" in reads else (by_map, M, W)
        if cid == "a6":  # b != 0 holds at every map part when |W| > 1
            t = t._replace(rB=t.rB + (W > 1))
        for v in _violations(t, [(cid, axes, reads, mask)], {"A": len(f.A.ar), "B": size}):
            found[cid] = tuple(x * scale + (cid == "a6" and x == 0) if axis == "B" else x
                               for axis, x in zip(axes, v.witness))
    return CheckReport(tuple(Violation(c[0], found[c[0]]) for c in _CONDITIONS if c[0] in found))
