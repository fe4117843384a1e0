"""Finite groups-with-action as dense operation tables.

Elements of an object are the indices 0..n-1, index 0 is the additive zero.
``add[x][y]`` stores x+y and ``act[x][y]`` stores x^y.  The group operation
is written additively but is not assumed commutative.

Axiom ids reported by ``check_axioms``:

  group.assoc      (x+y)+z = x+(y+z)
  group.identity   0+x = x = x+0
  group.inverse    every x has a two-sided inverse
  action.add       (g+g')^h = g^h + g'^h
  action.compose   g^(h+h') = (g^h)^h'
  action.zero      g^0 = g
  reduced.central  x^y + z = z + x^y          (y != 0)
  reduced.collapse x^(y^z) = x^y

The last two are the conditions cutting out the reduced subcategory; they
are checked only when ``require_reduced`` is set.

Each axiom is one row (id, axes, violation mask) of the table ``_AXIOMS``.
One loop, ``_violations``, scans such tables along their leading index in
chunks of at most ``_CHUNK_CELLS`` (2^18) cells, so memory stays flat
whatever the order, and stops each scan at the first chunk with a
violation.  It serves the axioms, the factored PA(A) axiom and action rows
of ``rgwa.pa``, and the candidate rows (id, axes, reads, mask) of
the two morphism laws of ``is_morphism`` and of the 22 derived-action and
19 pentaction conditions, whose tables carry a leading
candidate axis: it scans one candidate, and ``_passing`` gives the verdicts
of a batch.  The walked filters (additive bijections, the pentaction pow and
map factors) have ``_passing`` check their rows at the additive generators
only, which the closure lemma (Clifford & Preston I, section 1.2) makes the
full verdict; ``_violations``, which must give minimal witnesses, and the
brute-force oracles scan in full.  Every chunked loop (``_violations``,
``_passing``, ``_chunked``, ``_walk`` and
``analysis.weak_stabilizer``) takes its chunks from ``_slices``, the one
rule that turns ``_CHUNK_CELLS`` into a step.
The masks read an object's cached ``_arrays``: add, act, neg and the
carrier ar as index arrays.  Every table from outside is validated once,
by ``_check_table`` given its shape and the bound of its entries: the
object tables (``_check_tables``, ``corpus.conjugation_object``), the five
slots of a pentaction as one 5 x n table (``pentactions._validate_shape``),
the dot, up and pow tables of a triple (``extensions._validate_triple_shape``)
and a map as a 1 x n table (``is_morphism``, ``make_morphism``); a bad
entry is named by table and position.  ``ElementSet`` members and
``subobject_closure`` seeds go through ``as_index``, its per-entry rule.
``_scan_axioms`` then scans index arrays directly.  Every budget refusal is
raised by ``_charge``: ``rgwa validate`` (order^3), ``PAObject.object``
(m^2), ``verify_uniqueness`` and ``verify_representability`` (|B|),
``pentactions._check_budget`` and ``extensions._derived_action_batch``; the
last two share ``pentactions._charge_walks``, the n^|gens| charge.

Maps fixed by their generator images are all walked by ``_walk``, one
gather per BFS step for a chunk of image rows drawn from an array of
choices: the carrier (additive bijections), St (``_stabilizer``; pow
tables), the indices of Maps(A) (up families) or the rows of W' (the
derived-action pow rows).  Each caller filters the chunks with its masks.
The greedy generating set makes the kept tables come out sorted (the order
lemma of ``_walk``), so no walked factor is sorted after its walk.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from itertools import chain
from math import prod

import numpy as np

from .errors import BudgetExceededError, InputError, UnsupportedInputError, ValidationError
from .report import CheckReport, Violation

Table = tuple[tuple[int, ...], ...]
_Arrays = namedtuple("_Arrays", "add act neg ar")


def as_index(value, where: str = "table entry") -> int:
    """Coerce to an element index; a bool, float or string is refused as ``where``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{where} {value!r} is not an integer")


def _indices(values, what: str) -> tuple[int, ...]:
    """The ``what`` collection of element indices from outside, as ints."""
    if not isinstance(values, Iterable):
        raise InputError(f"{what} is {values!r}, not a list of entries")
    return tuple(map(as_index, values))


def _freeze_table(table, what: str, names=None) -> Table:
    """``table`` as a tuple of int rows, else InputError naming the ``what``
    table and the first bad row or entry, row x as ``names[x]`` when names
    are given.  Only a table holding a type other than int takes the
    per-entry ``as_index``."""
    if not isinstance(table, Iterable):
        raise InputError(f"{what} table is {table!r}, not a list of rows")
    rows = tuple(table)
    for x, row in enumerate(rows):
        if not isinstance(row, Iterable):
            name = names[x] if names else f"{what} table row {x}"
            raise InputError(f"{name} is {row!r}, not a list of entries")
    frozen = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(frozen))) <= {int}:
        return frozen
    return tuple(tuple(as_index(v, f"{names[x] if names else f'{what}[{x}]'}[{y}] =")
                       for y, v in enumerate(row)) for x, row in enumerate(frozen))


def _check_table(table, rows: int, cols: int, bound: int, what: str, names=None) -> Table:
    """The one check of a table from outside: ``table`` frozen, once it is
    rows x cols with entries in 0..bound-1, else InputError naming the first
    fault.  Messages call row x ``names[x]`` when names are given (the
    slots of a pentaction, the one row of a map), else by its index in
    ``what``."""
    frozen = _freeze_table(table, what, names)
    if len(frozen) != rows:
        raise InputError(f"{what} table has {len(frozen)} rows, expected {rows}")
    for x, row in enumerate(frozen):
        if len(row) != cols:
            name = names[x] if names else f"{what} table row {x}"
            raise InputError(f"{name} has {len(row)} entries, expected {cols}")
        if min(row) < 0 or max(row) >= bound:
            y, v = next((y, v) for y, v in enumerate(row) if not 0 <= v < bound)
            name = names[x] if names else f"{what}[{x}]"
            raise InputError(f"{name}[{y}] = {v} is out of range 0..{bound - 1}")
    return frozen


def _charge(cost: int, budget: int, need: str) -> None:
    """The one budget check: refuse a ``cost`` over ``budget``, saying what
    is refused as ``need``, "<stage> needs <count> <unit>", and the budget."""
    if cost > budget:
        raise BudgetExceededError(f"{need}, budget is {budget}")


# Upper bound on the cells of one violation mask.  Scans walk the leading
# axis in chunks of at most this many cells, so an n^3 condition never
# materialises more than a fixed slice of its mask.
_CHUNK_CELLS = 1 << 18


def _slices(count: int, cells: int):
    """The slices of range(count), in order, that hold at most
    ``_CHUNK_CELLS`` cells at ``cells`` per index, one index at least; the
    one place a chunk step is computed.  Lazy, as a count can reach 10^8."""
    step = max(1, _CHUNK_CELLS // max(cells, 1))
    return (slice(lo, min(count, lo + step)) for lo in range(0, count, step))


def _violations(t, conditions, sizes):
    """Yield one minimal-witness Violation per failing condition, in order.

    A condition is (id, axes, mask) or (id, axes, reads, mask): ``axes``
    names its index axes in witness order, one letter each, and ``sizes``
    maps every letter to its length.  ``mask(t, s)`` returns the violated
    cells whose leading index lies in the slice s, as an array led by that
    axis; a mask may report fewer axes than it scans, as group.inverse does.
    In a candidate row, naming the tables it ``reads``, those tables and the
    mask are led by a candidate axis k; candidate 0 is scanned.  The leading
    axis is scanned in chunks of at most ``_CHUNK_CELLS`` cells, stopping at
    the first chunk with a violation, whose C-order first hit is minimal.
    """
    for cid, axes, *reads, mask in conditions:
        for s in _slices(sizes[axes[0]], prod(sizes[x] for x in axes[1:])):
            hits = mask(t, s)
            if reads:
                hits = hits[0]
            if hits.any():
                first = np.unravel_index(int(hits.argmax()), hits.shape)
                yield Violation(cid, (s.start + int(first[0]),) + tuple(int(v) for v in first[1:]))
                break


def _passing(t, conditions, sizes, lead=None) -> np.ndarray:
    """Per candidate, whether it passes every candidate row.  Each row runs
    on the candidates that passed the rows before, in chunks gathered once
    from the tables the rows read and gathered again only after a row drops
    a candidate.  Unlike a scan, a batch never stops early, so its masks get
    an eighth of the ``_CHUNK_CELLS`` cells, to bound peak memory.

    ``lead`` maps an axis letter to the index array that a row led by that
    axis scans in place of the whole axis (by default, the whole axis).  The
    callers pass an object's additive generators (``_generator_lead``) where
    the closure lemma makes that verdict the full one: when the leading
    values at which a row holds for all its other variables are closed under
    + and include the generators, they are the whole finite group, since the
    subsemigroup a nonempty set generates is the subgroup.  Each such row
    owes its closure to the axioms of the objects it reads and to rows
    before it, so every candidate it sees has it."""
    lead = lead or {}
    reads = {r for _, _, needed, _ in conditions for r in needed}
    k = len(getattr(t, next(iter(reads))))
    ok = np.zeros(k, dtype=bool)
    rows = [(lead.get(axes[0], slice(None)), mask) for _, axes, _, mask in conditions]
    cells = max(len(lead[axes[0]]) * prod(sizes[x] for x in axes[1:]) if axes[0] in lead
                else prod(sizes[x] for x in axes) for _, axes, _, _ in conditions)
    for s in _slices(k, 8 * cells):
        live = np.arange(s.start, s.stop)
        chunk = t._replace(**{r: getattr(t, r)[live] for r in reads})
        for s, mask in rows:
            keep = ~_violated(mask(chunk, s))
            if keep.all():
                continue
            live = live[keep]
            if not len(live):
                break
            chunk = chunk._replace(**{r: getattr(chunk, r)[keep] for r in reads})
        ok[live] = True
    return ok


def _chunked(count: int, cells: int, build) -> np.ndarray:
    """``build(s)`` over the slices s of range(count) that hold at most
    ``_CHUNK_CELLS`` cells at ``cells`` per index, concatenated.  With count
    0, ``build`` gets the one slice of range(1), empty on the count-long
    axes, so the result keeps its trailing shape."""
    return np.concatenate([build(s) for s in _slices(max(count, 1), cells)])


def _pick(f: np.ndarray, *index) -> np.ndarray:
    """f[k, *index] per candidate k, the index arrays led by k or broadcast
    against it, as one flat index: numpy gathers that faster than several."""
    flat = np.arange(len(f)).reshape((-1,) + (1,) * (max(map(np.ndim, index)) - 1))
    for size, i in zip(f.shape[1:], index):
        flat = flat * size + i
    return f.reshape((-1,) + f.shape[1 + len(index):])[flat]


def _row_finder(keys: np.ndarray):
    """Lookup of (..., k) rows among the rows of the (r, k) array ``keys``:
    the index of each, or -1."""
    as_bytes = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    order = np.argsort(keys.view(as_bytes).ravel())
    sorted_bytes = keys[order].view(as_bytes).ravel()

    def find(rows: np.ndarray) -> np.ndarray:
        if not len(keys):
            return np.full(np.shape(rows)[:-1], -1, dtype=np.intp)
        flat = np.ascontiguousarray(rows).reshape(-1, keys.shape[1])
        hit = order[np.minimum(np.searchsorted(sorted_bytes, flat.view(as_bytes).ravel()),
                               len(keys) - 1)]
        return np.where((keys[hit] == flat).all(axis=1), hit, -1).reshape(rows.shape[:-1])

    return find


def _inverses(add: np.ndarray) -> np.ndarray:
    """Per x, the first y with x+y = 0 = y+x, or -1 when there is none."""
    both = (add == 0) & (add.T == 0)
    return np.where(both.any(axis=1), both.argmax(axis=1), -1)


# (id, axes, violation mask) over an _Arrays t, in report order; the
# reduced.* entries run only under require_reduced.
_AXIOMS = (
    # (x+y)+z = x+(y+z)
    ("group.assoc", "XXX", lambda t, s: t.add[t.add[s]] != t.add[s][:, t.add]),
    # 0+x = x = x+0
    ("group.identity", "X", lambda t, s: (t.add[0, s] != t.ar[s]) | (t.add[s, 0] != t.ar[s])),
    # some y has x+y = 0 = y+x; scans (x, y), reports x
    ("group.inverse", "XX", lambda t, s: ~((t.add[s] == 0) & (t.add[:, s].T == 0)).any(axis=1)),
    # (g+g')^h = g^h + g'^h
    ("action.add", "XXX", lambda t, s: t.act[t.add[s]] != t.add[t.act[s, None], t.act]),
    # g^(h+h') = (g^h)^h'
    ("action.compose", "XXX", lambda t, s: t.act[s][:, t.add] != t.act[t.act[s]]),
    # g^0 = g
    ("action.zero", "X", lambda t, s: t.act[s, 0] != t.ar[s]),
    # x^y + z = z + x^y  for y != 0
    ("reduced.central", "XXX",
     lambda t, s: (t.add[t.act[s]] != t.add.T[t.act[s]]) & (t.ar[:, None] > 0)),
    # x^(y^z) = x^y
    ("reduced.collapse", "XXX", lambda t, s: t.act[s][:, t.act] != t.act[s, :, None]),
)


def _check_tables(n: int, add, act) -> tuple[Table, Table]:
    if n < 1:
        raise InputError(f"order must be positive, got {n}")
    return _check_table(add, n, n, n, "add"), _check_table(act, n, n, n, "act")


def _scan_axioms(add: np.ndarray, act: np.ndarray, require_reduced: bool) -> CheckReport:
    """The axiom scan over in-range (n, n) index arrays; the axioms read no neg."""
    t = _Arrays(add, act, None, np.arange(len(add), dtype=np.intp))
    axioms = [a for a in _AXIOMS if require_reduced or not a[0].startswith("reduced.")]
    return CheckReport(tuple(_violations(t, axioms, {"X": len(add)})))


def check_axioms(order: int, add, act, require_reduced: bool = False) -> CheckReport:
    """Scan the full group, action and (optionally) reduced axioms.

    Returns one lexicographically minimal witness per violated axiom.
    Malformed tables raise InputError instead of reporting a violation.
    """
    add, act = (np.asarray(x, dtype=np.intp) for x in _check_tables(order, add, act))
    return _scan_axioms(add, act, require_reduced)


@dataclass(frozen=True)
class FiniteGwaObject:
    """Validated finite group with action.

    Instances are immutable; construct through :func:`make_object` so the
    axiom gate runs.  ``reduced`` records whether the reduced conditions were
    part of the validation.
    """

    name: str = field(compare=False)
    order: int
    add: Table
    act: Table
    reduced: bool = field(default=True, compare=False)

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """Additive inverse of each element, derived from the add table."""
        return tuple(self._arrays.neg.tolist())

    @cached_property
    def _arrays(self) -> _Arrays:
        """The add, act and neg tables and the carrier as index arrays, for
        the vectorized scans."""
        add = np.asarray(self.add, dtype=np.intp)
        return _Arrays(add, np.asarray(self.act, dtype=np.intp), _inverses(add),
                       np.arange(self.order, dtype=np.intp))

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self._arrays.add == self._arrays.add.T).all())

    @cached_property
    def has_trivial_action(self) -> bool:
        return len(_stabilizer(self)) == self.order

    @property
    def elements(self) -> range:
        return range(self.order)

    def sub(self, x: int, y: int) -> int:
        """x - y in the additive group."""
        return self.add[x][self.neg[y]]

    def table_equal(self, other: "FiniteGwaObject") -> bool:
        """Same order and bit-identical operation tables (relabeling-free)."""
        return other is self or (
            self.order == other.order
            and self.add == other.add
            and self.act == other.act
        )


def make_object(name: str, order: int, add, act, require_reduced: bool = True) -> FiniteGwaObject:
    """Validate tables and build an object, or raise with the failing report."""
    add, act = _check_tables(order, add, act)
    obj = FiniteGwaObject(name=name, order=order, add=add, act=act, reduced=require_reduced)
    report = _scan_axioms(obj._arrays.add, obj._arrays.act, require_reduced)
    if not report.passed:
        raise ValidationError(
            f"{name!r} violates {', '.join(report.conditions())}", report
        )
    return obj


@dataclass(frozen=True)
class GwaMorphism:
    """Map between objects, given as a target-index sequence over the source."""

    source: FiniteGwaObject
    target: FiniteGwaObject
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]


def identity_morphism(obj: FiniteGwaObject) -> GwaMorphism:
    return GwaMorphism(obj, obj, tuple(range(obj.order)))


# A batch of k maps as a (k, n) index array f, with their source's and
# target's _Arrays.
_Hom = namedtuple("_Hom", "f src tgt")

# f(x op y) = f(x) op f(y), in report order, as candidate rows reading f
_HOM_LAWS = (
    ("hom.add", "XX", ("f",),
     lambda t, s: t.f[:, t.src.add[s]] != t.tgt.add[t.f[:, s, None], t.f[:, None]]),
    ("hom.act", "XX", ("f",),
     lambda t, s: t.f[:, t.src.act[s]] != t.tgt.act[t.f[:, s, None], t.f[:, None]]),
)


def is_morphism(f: GwaMorphism) -> CheckReport:
    """Check the two preservation laws; ids "hom.add" and "hom.act".

    f(0)=0 is not checked separately: it is forced by hom.add at (0,0).
    """
    f_map = _map_table(f.source, f.target, f.map)
    t = _Hom(np.asarray((f_map,), dtype=np.intp), f.source._arrays, f.target._arrays)
    return CheckReport(tuple(_violations(t, _HOM_LAWS, {"X": f.source.order})))


def _map_table(source: FiniteGwaObject, target: FiniteGwaObject, mapping) -> tuple[int, ...]:
    """A map from outside, checked as a 1 x n_source table named "map"."""
    return _check_table((mapping,), 1, source.order, target.order, "map", ("map",))[0]


def make_morphism(source: FiniteGwaObject, target: FiniteGwaObject, mapping) -> GwaMorphism:
    f = GwaMorphism(source, target, _map_table(source, target, mapping))
    report = is_morphism(f)
    if not report.passed:
        raise ValidationError(f"map violates {', '.join(report.conditions())}", report)
    return f


@dataclass(frozen=True)
class ElementSet:
    """Sorted duplicate-free subset of an object's carrier."""

    parent: FiniteGwaObject
    members: tuple[int, ...]

    def __post_init__(self):
        normalized = tuple(sorted(set(_indices(self.members, "members"))))
        object.__setattr__(self, "members", normalized)
        if normalized and not (0 <= normalized[0] and normalized[-1] < self.parent.order):
            raise InputError("member out of range for the parent carrier")

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def is_zero(self) -> bool:
        """True when the set is contained in {0}."""
        return self.members in ((), (0,))


def _closure(seeds: Iterable[int], ops: Sequence[Table]) -> set[int]:
    """0 and the seeds closed under each table in ``ops``, each element
    combined once, as it joins, with every member in both orders; with no
    negation step, as -x = (k-1)x in a finite group, k the order of x."""
    members: set[int] = set()
    todo = {0, *seeds}
    while todo:
        x = todo.pop()
        members.add(x)
        for op in ops:
            todo.update([op[x][y] for y in members], [op[y][x] for y in members])
        todo -= members
    return members


def subobject_closure(obj: FiniteGwaObject, seeds: Iterable[int]) -> ElementSet:
    """Smallest subset containing 0 and the seeds, closed under addition,
    additive inverse, and the action with both arguments inside the subset.
    """
    seeds = _indices(seeds, "seeds")
    for s in seeds:
        if not 0 <= s < obj.order:
            raise InputError(f"seed {s} out of range")
    return ElementSet(obj, tuple(_closure(seeds, (obj.add, obj.act))))


def additive_closure(obj: FiniteGwaObject, seeds: Iterable[int]) -> set[int]:
    """Subgroup of (carrier, +) generated by the seeds (no action closure)."""
    return _closure(seeds, (obj.add,))


def derived_subobject(obj: FiniteGwaObject) -> ElementSet:
    """Subobject generated by the action values x^y with nonzero exponent.

    Exponent 0 is excluded: x^0 = x would make the generated subobject the
    whole carrier for every object and void the perfectness notion.  It is
    the whole carrier anyway (lemma): x -> x^1 is a bijection, inverse
    x -> x^(-1) by action.compose and action.zero, and n = 1 has no y != 0.
    """
    return ElementSet(obj, tuple(obj.elements))


def is_perfect(obj: FiniteGwaObject) -> bool:
    """True: the derived subobject is the whole carrier (its lemma)."""
    return True


# Every wrapper made by ``object_cache``, so that all of them can be cleared.
_OBJECT_CACHES: list = []


def object_cache(maxsize: int):
    """``lru_cache`` for a function of one object, keyed on its tables and
    its name; each wrapper is listed in ``_OBJECT_CACHES``.

    Object equality ignores the name, so a plain ``lru_cache`` would hand one
    object's results, which may point back at it, to an equal-table object
    with another name.  Reloading the same document still hits the cache.
    """
    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(lambda obj, name: fn(obj))

        @wraps(fn)
        def wrapper(obj):
            return cached(obj, obj.name)

        wrapper.cache_clear = cached.cache_clear
        _OBJECT_CACHES.append(wrapper)
        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Generator machinery: greedy generating sets plus BFS words, used to extend
# maps that are determined by their values on additive generators.
# ---------------------------------------------------------------------------

# Each step is (element, parent, generator_position, sign): the element is
# first reached from parent by adding the generator (sign +1) or its inverse
# (sign -1) on the right.
Step = tuple[int, int, int, int]


@object_cache(maxsize=64)
def generating_words(obj: FiniteGwaObject) -> tuple[tuple[int, ...], tuple[Step, ...]]:
    """Greedy additive generating set and a BFS step list covering the carrier."""
    gens: list[int] = []
    closure = {0}
    while len(closure) < obj.order:
        gens.append(min(x for x in range(obj.order) if x not in closure))
        closure = additive_closure(obj, gens)
    steps: list[Step] = []
    seen = {0}
    frontier = [0]
    while frontier:
        nxt: list[int] = []
        for x in frontier:
            for gi, g in enumerate(gens):
                for sign, h in ((1, g), (-1, obj.neg[g])):
                    y = obj.add[x][h]
                    if y not in seen:
                        seen.add(y)
                        steps.append((y, x, gi, sign))
                        nxt.append(y)
        frontier = nxt
    return tuple(gens), tuple(steps)


def _generator_walk(steps: Sequence[Step], images: np.ndarray, start, rule) -> np.ndarray:
    """Value tables (k, n, ...) of the k maps fixed by k rows of generator
    images, with value ``start`` at 0.  Per BFS step, ``rule(prev, img,
    step)`` gathers the values at the step's element from ``prev``, those at
    its parent, and ``img``, its generator's column of images."""
    start = np.asarray(start)
    values = np.empty((len(images), len(steps) + 1) + start.shape, dtype=np.intp)
    values[:, 0] = start
    for step in steps:
        values[:, step[0]] = rule(values[:, step[1]], images[:, step[2]], step)
    return values


def _violated(mask: np.ndarray) -> np.ndarray:
    """Per-candidate verdict of a (k, ...) violation mask; k may be 0."""
    return mask.any(axis=tuple(range(1, mask.ndim)))


def _generator_lead(obj: FiniteGwaObject) -> np.ndarray:
    """The additive generators of obj as an index array, [0] on the trivial
    carrier: the leading values that ``_passing`` checks a row at when the
    closure lemma applies to it."""
    return np.asarray(generating_words(obj)[0] or (0,), dtype=np.intp)


def _v_additive(t, f: np.ndarray, s) -> np.ndarray:
    # f(a + a') = f(a) + f(a') for a in s, for k value tables f over t.add;
    # the a at which it holds are closed under + by associativity alone
    return f[:, t.add[s]] != t.add[f[:, s, None], f[:, None]]


def _walk(words, choices: np.ndarray, start, rule, cells: int = 0):
    """``_generator_walk`` along ``words`` = (gens, steps) from every row of
    |gens| images drawn from ``choices``, in product order, in chunks of
    ``_CHUNK_CELLS`` cells at ``cells`` per row.  By default the row is one
    map of the walked object, its n = |steps| + 1 values checked at the
    generators: n*max(|gens|, 1) cells.

    Order lemma: the tables a caller keeps come out sorted.  The generating
    set is greedy, each g_k the least element outside <g_0, ..., g_{k-1}>,
    so every x < g_k lies in that subgroup.  A kept table is a map fixed by
    its generator images (an additive map, a crossed map, or a pow family
    that passed 2A), so its cells below g_k depend on the first k images
    only, and its cell at g_k is the k-th image (in W', that image's index).
    Two kept tables therefore compare cell by cell as their image rows
    compare lexicographically, and the image rows come in product order of
    ascending choices: the carrier, St from ``np.flatnonzero`` or the sorted
    rows of W'."""
    gens, steps = words
    base = len(choices)
    for s in _slices(base ** len(gens), cells or (len(steps) + 1) * max(len(gens), 1)):
        rest = np.arange(s.start, s.stop)
        index = np.empty((len(rest), len(gens)), dtype=np.intp)
        for gi in reversed(range(len(gens))):
            rest, index[:, gi] = np.divmod(rest, base)
        yield _generator_walk(steps, choices[index], start, rule)


def _stabilizer(obj: FiniteGwaObject) -> np.ndarray:
    """St = {s : a^s = a for all a}: the act table's columns equal to the carrier."""
    return np.flatnonzero((obj._arrays.act == obj._arrays.ar[:, None]).all(axis=0))


@object_cache(maxsize=64)
def _additive_bijections_cached(obj: FiniteGwaObject) -> np.ndarray:
    t, lead = obj._arrays, _generator_lead(obj)
    kept = []
    # f(x + g) = f(x) + f(g) and f(x - g) = f(x) - f(g)
    for f in _walk(generating_words(obj), t.ar, 0,
                   lambda prev, img, step: t.add[prev, img if step[3] > 0 else t.neg[img]]):
        f = f[(np.sort(f, axis=1) == t.ar).all(axis=1)]
        kept.append(f[~_violated(_v_additive(t, f, lead))])
    rows = np.concatenate(kept)  # sorted by the order lemma of _walk
    rows.setflags(write=False)  # the one copy, shared by every reader
    return rows


def additive_bijections(obj: FiniteGwaObject) -> list[tuple[int, ...]]:
    """All additive self-bijections, sorted by value table."""
    return list(map(tuple, _additive_bijections_cached(obj).tolist()))


def invert_map(f: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a bijective value table."""
    out = [0] * len(f)
    for i, v in enumerate(f):
        out[v] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# Quotients (abelian trivial-action carriers only).
# ---------------------------------------------------------------------------


def _require_abelian_trivial(obj: FiniteGwaObject, operation: str) -> None:
    if not (obj.is_abelian and obj.has_trivial_action):
        raise UnsupportedInputError(
            f"{operation} is only computed for abelian trivial-action carriers; "
            f"{obj.name!r} is not one"
        )


def _quotient_with_map(obj: FiniteGwaObject, subgroup: ElementSet):
    _require_abelian_trivial(obj, "a quotient")
    if not subgroup.parent.table_equal(obj):
        raise InputError("subgroup belongs to a different carrier")
    if subobject_closure(obj, subgroup.members).members != subgroup.members:
        raise InputError("the given set is not a subgroup (not closed)")
    w = set(subgroup.members)
    # Coset of x = {x + w}; canonical label is the minimal representative.
    coset_min = [min(obj.add[x][v] for v in w) for x in range(obj.order)]
    reps = sorted(set(coset_min))
    index_of = {rep: k for k, rep in enumerate(reps)}
    m = len(reps)
    add = [[index_of[coset_min[obj.add[x][y]]] for y in reps] for x in reps]
    act = [[k for _ in range(m)] for k in range(m)]
    members = ",".join(str(v) for v in subgroup.members)
    quotient = make_object(f"{obj.name}/{{{members}}}", m, add, act, require_reduced=True)
    projection = GwaMorphism(obj, quotient, tuple(index_of[coset_min[x]] for x in range(obj.order)))
    return quotient, projection


def quotient_by_subgroup(obj: FiniteGwaObject, subgroup: ElementSet) -> FiniteGwaObject:
    """A/W with induced addition and trivial action.

    Cosets are labeled by minimal representative and relabeled 0..m-1 in
    representative order, so the coset of 0 sits at index 0.
    """
    return _quotient_with_map(obj, subgroup)[0]


def quotient_map(obj: FiniteGwaObject, subgroup: ElementSet) -> GwaMorphism:
    """The canonical projection onto quotient_by_subgroup(obj, subgroup)."""
    return _quotient_with_map(obj, subgroup)[1]
