"""PA(A) as an object, its canonical action on A, and the factorization of
arbitrary derived actions through it.

The conditional theorems hold when the base object is perfect with zero weak
stabilizer; outside that regime every builder here stays diagnostic: reports
carry the failing conditions instead of raising.

PA(A) and its action are checked over the factor tables of ``rgwa.pa``, with
no m x m table and no Pentaction per element.  A ``PAObject`` is PA(base) by
construction, so every lookup into it is a factor lookup, find_map * |W| +
find_pow: ``index_of``, the images of ``represent`` (find_map on the dot
and up columns of b and -b), and the match sets of ``verify_uniqueness``,
which hold at most one element each, since find_map finds a map part only
where dotL = dotR = id and upL = up^-1, as in every element.

``verify_representability`` reads the derived actions of each acting
object B as one batch, and on a verified PA(A) no image, morphism law or
uniqueness check of the batch can fail.  Lemma: let PA(A) be verified, so
A is reduced, and let (id, up, pow) be an enumerated derived action of B
on A.  Then the factorization phi(b) = (i_b, j_b) has:

- every image: each column up(., b) lies in Maps(A), as the enumerator
  walks it there (the ``extensions`` docstring); up(., -b) = up(., b)^-1,
  by 2B and zeroB, so the map part (id, id, up(., b), up(., -b)) is found;
  and each pow row lies in W' <= W, so its pow table is found.
- hom.add: the map part of phi(b) + phi(b2) is up(., b2) o up(., b), which
  is up(., b + b2) by 2B, and its pow table pow[b] + pow[b2], which is
  pow[b + b2] by 2A with dot = id.
- hom.act: phi(b) ^ phi(b2) keeps the map part of phi(b), which is that of
  b ^ b2 by a5, and its pow table is up(., b2) o pow[b], which is
  pow[b ^ b2] by 4B.
- uniqueness: each M_b of ``verify_uniqueness`` is {phi(b)}.

The enumerator keeps only triples passing 2A, 2B, 4B and a5.  So the batch
check is ``_require_verified`` and the |B| uniqueness charge, and the
per-triple loop of ``represent``, ``is_morphism`` and
``verify_uniqueness`` stays the test oracle of the lemma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import FiniteGwaObject, GwaMorphism
from .corpus import _corpus_up_to
from .errors import BudgetExceededError, InputError, StructuralError
from .extensions import (
    DerivedActionTriple,
    _derived_action_batch,
    _validate_triple_shape,
    check_derived_action,
)
from .pa import (
    _assemble,
    _canonical_factors,
    _element,
    _pa_action_report,
    _pa_report,
    _PaFactors,
)
from .pentactions import (
    DEFAULT_BUDGET,
    Pentaction,
    _check_budget,
    _enumerate_pentactions_uncapped,
    _require_reduced,
    check_pentaction,
)
from .report import CheckReport, Violation


@dataclass(frozen=True)
class PAObject:
    """PA(base) and its reduced-axiom report.

    Element i*|W| + j is the pentaction with map part i and pow table j; the
    zero pentaction sits at index 0 (identity maps and the constant 0 sort
    first).  A sum has map part up_y o up_x and the pow table pow_x + pow_y,
    and a power x^y map part i_x and the pow table up_y o pow_x, over the
    factors of the base.  ``order`` and ``action_report`` read the
    factors; ``elements`` (m Pentactions) and ``object`` (the m x m tables,
    charged m^2 cells against ``budget``) are built on first access.
    PA(base) is a group with action (the ``rgwa.pa`` docstring), ``report``
    can name only reduced.central and ``action_report`` only a9 and a10, and
    ``object.reduced`` is ``report.passed``: whether the reduced axioms hold.
    """

    base: FiniteGwaObject
    report: CheckReport
    budget: int = field(default=DEFAULT_BUDGET, compare=False)

    @cached_property
    def _factors(self) -> _PaFactors:
        _require_reduced(self.base)
        return _canonical_factors(self.base)

    @cached_property
    def order(self) -> int:
        return len(self._factors.up) * self._factors.W

    @cached_property
    def elements(self) -> tuple[Pentaction, ...]:
        return _enumerate_pentactions_uncapped(self.base)

    @cached_property
    def object(self) -> FiniteGwaObject:
        m = self.order
        if m * m > self.budget:
            raise BudgetExceededError(
                f"assembling the operation tables of PA({self.base.name}) needs {m * m} "
                f"cells, budget is {self.budget}"
            )
        add, act = (tuple(map(tuple, x.tolist())) for x in _assemble(self._factors))
        return FiniteGwaObject(f"PA({self.base.name})", m, add, act, reduced=self.report.passed)

    @cached_property
    def action_report(self) -> CheckReport:
        """The 22-condition report of the action of PA(A) on A."""
        return _pa_action_report(self._factors)

    def index_of(self, pent: Pentaction) -> int:
        """Index of a pentaction given extensionally, or -1."""
        n, tables = self.base.order, tuple(pent.tables().values())
        if any(len(x) != n for x in tables) or not set(pent.key()) <= set(range(n)):
            return -1
        f, rows = self._factors, np.asarray(tables, dtype=np.intp)
        return int(_element(f, f.find_map(*rows[:4]), f.find_pow(rows[4])))


def build_pa_object(obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET) -> PAObject:
    """PA(obj) and its reduced-axiom report, read off the factor tables of
    Maps(A) x Pow(A), with no m x m table or Pentaction built.  The report
    is the scan of reduced.central on the map parts, |Maps|^2 * n cells, the
    one axiom that can fail on PA(A) (the ``rgwa.pa`` docstring).
    Failures are reported, not raised: the scan and ``action_report`` pass
    exactly when the base has zero weak stabilizer, and otherwise the report
    documents how the construction degrades.
    """
    _check_budget(obj, budget)
    return PAObject(obj, _pa_report(_canonical_factors(obj)), budget)


def pa_action(pa: PAObject) -> DerivedActionTriple:
    """The componentwise action of the assembled object on its base: the
    dot, up and pow of each element are those of its map part and pow
    table.  Carries ``pa.action_report``, the full 22-condition report
    (diagnostic when the theorem hypotheses fail)."""
    f = pa._factors
    i, j = np.divmod(np.arange(pa.order), f.W)
    up, pw = (tuple(map(tuple, x.tolist())) for x in (f.up[i].T, f.pow[j]))
    dot = (tuple(range(pa.base.order)),) * pa.order
    return DerivedActionTriple(pa.base, pa.object, dot, up, pw, report=pa.action_report)


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
    if not pa.report.passed:
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
    f = pa._factors
    dot, up, pw = (np.asarray(x, dtype=np.intp) for x in (triple.dot, triple.up, triple.pow))
    # the map part (dot[b], dot[-b], up(., b), up(., -b)) of each image
    negB, upc = B._arrays.neg, up.T
    phi = _element(f, f.find_map(dot, dot[negB], upc, upc[negB]), f.find_pow(pw))
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
    the triple's column for b.  Every element of PA(A) has dotL = dotR = id
    and upL = up^-1, so M_b is empty unless dot[b] is the identity, and
    holds at most the element with up[., b] and pow[b]: one factor lookup
    per b.  The budget is charged those |B| lookups, not the m^|B| maps of
    an exhaustive search.  A malformed triple raises InputError.

    Violation ids: "uniq.phi" when phi itself fails the filter, "uniq.extra"
    (witness: the one satisfying map) when that map is not phi.
    """
    _require_action_of(A, B, triple)
    _validate_triple_shape(triple)
    pa = _require_pa_of(A, pa)
    _charge_uniqueness(B.order, budget)
    f = pa._factors
    dot, up, pw = (np.asarray(x, dtype=np.intp) for x in (triple.dot, triple.up, triple.pow))
    i = f.find_map(dot, np.argsort(dot, axis=1), up.T, np.argsort(up.T, axis=1))
    found = tuple(_element(f, i, f.find_pow(pw)).tolist())
    target = tuple(phi.map)
    violations = []
    if -1 in found or target != found:
        violations.append(Violation("uniq.phi", target))
    if -1 not in found and target != found:
        violations.append(Violation("uniq.extra", found))
    return CheckReport(tuple(violations))


def _charge_uniqueness(columns: int, budget: int) -> None:
    """Refuse the |B| uniqueness lookups over the budget."""
    if columns > budget:
        raise BudgetExceededError(
            f"uniqueness lookup for {columns} columns costs {columns}, exceeds budget {budget}"
        )


@dataclass(frozen=True)
class RepresentabilityReport:
    """Aggregate outcome of representability verification for one base.

    ``failures`` entries are JSON-ready dicts naming the stage that broke
    ("pa_rgwa", "pa_action" or "represent"), the acting object and triple
    index where applicable, and the conditions.  An unverified PA(A) gives
    one "represent" entry per B with derived actions, triple None; on a
    verified PA(A) no morphism or uniqueness check can fail (the module
    docstring)."""

    base: str
    pa_order: int
    pa_rgwa: CheckReport
    pa_action: CheckReport
    pairs_checked: int
    failures: tuple[dict, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "pa_order": self.pa_order,
            "pa_rgwa": self.pa_rgwa.to_json(),
            "pa_action": self.pa_action.to_json(),
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
    actions are checked as one batch: by the lemma of the module docstring,
    a nonempty batch gives one represent failure when PA(A) is not
    verified, and otherwise only the |B| charge of ``verify_uniqueness``,
    made once, at triple 0, as the per-triple loop makes it.  So the report
    is the one of ``represent``, ``is_morphism`` and ``verify_uniqueness``
    run per triple.
    """
    failures: list[dict] = []
    pa = build_pa_object(A, budget=budget)
    if not pa.report.passed:
        failures.append(_failure("pa_rgwa", None, None, list(pa.report.conditions())))
    if not pa.action_report.passed:
        failures.append(_failure("pa_action", None, None, list(pa.action_report.conditions())))
    pairs = 0
    for B in acting_objects if acting_objects is not None else _corpus_up_to(max_b_order):
        if B.order > max_b_order:
            continue
        try:
            batch = _derived_action_batch(A, B, budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"representability check for {A.name!r}: {exc}"
            ) from exc
        pairs += len(batch.pair)
        if not len(batch.pair):
            continue
        try:
            _require_verified(A, pa)
        except StructuralError as exc:
            failures.append(_failure("represent", B, None, [str(exc)]))
            continue
        try:
            _charge_uniqueness(B.order, budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"representability check for {A.name!r}, B={B.name!r}, triple 0: {exc}"
            ) from exc
    return RepresentabilityReport(
        base=A.name,
        pa_order=pa.order,
        pa_rgwa=pa.report,
        pa_action=pa.action_report,
        pairs_checked=pairs,
        failures=tuple(failures),
    )
