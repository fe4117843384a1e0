"""PA(A) as an object, its canonical action on A, and the factorization of
arbitrary derived actions through it.

The conditional theorems hold when the base object is perfect with zero weak
stabilizer; outside that regime every builder here stays diagnostic: reports
carry the failing conditions instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import FiniteGwaObject, GwaMorphism, _scan_axioms, is_morphism
from .corpus import standard_corpus
from .errors import BudgetExceededError, InputError, StructuralError
from .extensions import DerivedActionTriple, check_derived_action, enumerate_derived_actions
from .pentactions import (
    DEFAULT_BUDGET,
    Pentaction,
    check_pentaction,
    enumerate_pentactions,
    zero_pentaction,
)
from .report import CheckReport, Violation


@dataclass(frozen=True)
class PAObject:
    """The pentaction set of a base object assembled into operation tables.

    ``elements[i]`` is the pentaction behind index i, with the zero
    pentaction relocated to index 0 and the remainder in canonical order.
    ``object`` is None exactly when a sum or power of two pentactions left
    the enumerated set (possible only for imperfect bases); the closure
    failures are then recorded in ``report``.  Otherwise ``report`` is the
    full reduced-axiom scan of the assembled tables.
    """

    base: FiniteGwaObject
    elements: tuple[Pentaction, ...]
    object: FiniteGwaObject | None
    report: CheckReport

    def index_of(self, pent: Pentaction) -> int:
        """Index of a pentaction given extensionally, or -1."""
        return self._index.get(pent.key(), -1)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {p.key(): i for i, p in enumerate(self.elements)}

    @cached_property
    def _by_action(self) -> dict[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(dotL, up, pow) -> ascending indices of the elements carrying it."""
        groups: dict[tuple[tuple[int, ...], ...], list[int]] = {}
        for i, p in enumerate(self.elements):
            groups.setdefault((p.dotL, p.up, p.pow), []).append(i)
        return {k: tuple(v) for k, v in groups.items()}


def _pa_tables(
    obj: FiniteGwaObject, elements: Sequence[Pentaction]
) -> tuple[np.ndarray, np.ndarray, tuple[Violation, ...]]:
    """Index tables of pentaction sum and power over ``elements``.

    Both operations are array arithmetic on the stacked (m, n) component
    tables, one row p at a time, so memory stays O(m*n).  Each resulting
    pentaction is looked up among the element keys by a sorted byte-view
    search.  A result outside the set is a closure gap: the first (i, j) in
    row-major order is reported as "pa.closure.add" or "pa.closure.act" and
    its cell is left at -1.
    """
    m, n = len(elements), obj.order
    dotL, dotR, up, upL, pw = (
        np.asarray([getattr(p, slot) for p in elements], dtype=np.intp).reshape(m, n)
        for slot in ("dotL", "dotR", "up", "upL", "pow")
    )
    base_add = obj._arrays.add
    keys = np.concatenate([dotL, dotR, up, upL, pw], axis=1)
    as_bytes = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    order = np.argsort(keys.view(as_bytes).ravel())
    sorted_bytes = keys[order].view(as_bytes).ravel()

    def lookup(rows: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(sorted_bytes, np.ascontiguousarray(rows).view(as_bytes).ravel())
        hit = order[np.minimum(pos, m - 1)]
        return np.where((keys[hit] == rows).all(axis=1), hit, -1)

    ident = np.broadcast_to(np.arange(n, dtype=np.intp), (m, n))
    add = np.empty((m, m), dtype=np.intp)
    act = np.empty((m, m), dtype=np.intp)
    first_gap: dict[str, Violation] = {}
    for i in range(m):
        # q ranges over the rows: sum p+q and power p^q for every q at once
        add[i] = lookup(np.concatenate([
            dotL[i][dotL],
            dotR[:, dotR[i]],
            up[:, up[i]],
            upL[i][upL],
            base_add[pw[i], dotL[i][pw]],
        ], axis=1))
        act[i] = lookup(np.concatenate([
            ident,
            ident,
            np.broadcast_to(up[i], (m, n)),
            np.broadcast_to(upL[i], (m, n)),
            np.take_along_axis(up, pw[i][dotL], axis=1),
        ], axis=1))
        for condition, row in (("pa.closure.add", add[i]), ("pa.closure.act", act[i])):
            if condition not in first_gap and (row < 0).any():
                first_gap[condition] = Violation(condition, (i, int(np.argmax(row < 0))))
    gaps = tuple(first_gap[c] for c in ("pa.closure.add", "pa.closure.act") if c in first_gap)
    return add, act, gaps


def build_pa_object(obj: FiniteGwaObject, budget: int = DEFAULT_BUDGET) -> PAObject:
    """Assemble addition (pentaction sum) and action (pentaction power)
    tables over the enumerated pentaction set and scan the reduced axioms.

    Failures are reported, not raised: when the base is perfect with zero
    weak stabilizer the scan must pass, otherwise the report documents how
    the construction degrades.
    """
    zero = zero_pentaction(obj)
    elements = [zero] + [p for p in enumerate_pentactions(obj, budget=budget) if p != zero]
    m = len(elements)
    add, act, gaps = _pa_tables(obj, elements)
    if gaps:
        return PAObject(obj, tuple(elements), None, CheckReport(gaps))
    report = _scan_axioms(add, act, require_reduced=True)
    assembled = FiniteGwaObject(
        name=f"PA({obj.name})",
        order=m,
        add=tuple(map(tuple, add.tolist())),
        act=tuple(map(tuple, act.tolist())),
        reduced=report.passed,
    )
    return PAObject(obj, tuple(elements), assembled, report)


def pa_action(pa: PAObject) -> DerivedActionTriple:
    """The componentwise action of the assembled object on its base:
    dot/up/pow read off each pentaction's own tables.  Carries the full
    22-condition report (diagnostic when the theorem hypotheses fail)."""
    if pa.object is None:
        raise StructuralError(
            f"PA({pa.base.name}) did not close under its operations; "
            f"no carrier object to act with"
        )
    base = pa.base
    dot = tuple(p.dotL for p in pa.elements)
    up = tuple(
        tuple(p.up[a] for p in pa.elements) for a in range(base.order)
    )
    pw = tuple(p.pow for p in pa.elements)
    triple = DerivedActionTriple(base, pa.object, dot, up, pw)
    return DerivedActionTriple(base, pa.object, dot, up, pw,
                               report=check_derived_action(triple))


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
    pre = triple.report or check_derived_action(triple)
    if not pre.passed:
        raise InputError(
            f"represent needs a verified derived action; check fails "
            f"{', '.join(pre.conditions())}"
        )
    if pa is None:
        pa = build_pa_object(A)
    if pa.object is None or not pa.report.passed:
        raise StructuralError(
            f"PA({A.name}) is not a verified reduced object; "
            f"failing: {', '.join(pa.report.conditions())}"
        )
    mapping = []
    for b in range(B.order):
        nb = B.neg[b]
        cand = Pentaction(
            A,
            dotL=tuple(triple.dot[b]),
            dotR=tuple(triple.dot[nb]),
            up=tuple(triple.up[a][b] for a in range(A.order)),
            upL=tuple(triple.up[a][nb] for a in range(A.order)),
            pow=tuple(triple.pow[b]),
        )
        idx = pa.index_of(cand)
        if idx < 0:
            cand_report = check_pentaction(cand)
            detail = (
                ", ".join(cand_report.conditions())
                if not cand_report.passed
                else "valid pentaction missing from the enumerated set"
            )
            raise StructuralError(
                f"image of b={b} is not available in PA({A.name}): {detail}"
            )
        mapping.append(idx)
    return GwaMorphism(B, pa.object, tuple(mapping))


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
    product of the per-b sets M_b of indices whose (dotL, up, pow) equals the
    triple's column for b; each M_b is one lookup in a table built once per
    PA object.  The budget is charged m + |B| (the table and the lookups),
    not the m^|B| maps of an exhaustive search.

    Violation ids: "uniq.phi" when phi itself fails the filter, "uniq.extra"
    (witness: the lexicographically first satisfying map other than phi)
    when the satisfying set is larger.
    """
    if pa is None:
        pa = build_pa_object(A)
    m = len(pa.elements)
    cost = m + B.order
    if cost > budget:
        raise BudgetExceededError(
            f"uniqueness lookup over {m} elements for {B.order} columns "
            f"costs {cost}, exceeds budget {budget}"
        )
    by_action = pa._by_action
    per_b = [  # M_b for each b
        by_action.get((
            tuple(triple.dot[b]),
            tuple(triple.up[a][b] for a in range(A.order)),
            tuple(triple.pow[b]),
        ), ())
        for b in range(B.order)
    ]
    target = tuple(phi.map)
    violations = []
    if len(target) != B.order or any(t not in ms for t, ms in zip(target, per_b)):
        violations.append(Violation("uniq.phi", target))
    if all(per_b):
        extra = tuple(ms[0] for ms in per_b)
        if extra == target:
            # phi is the first match; the next one in lexicographic order
            # takes the second choice at the last position that has one
            last = max((b for b, ms in enumerate(per_b) if len(ms) > 1), default=None)
            extra = None if last is None else extra[:last] + (per_b[last][1],) + extra[last + 1:]
        if extra is not None:
            violations.append(Violation("uniq.extra", extra))
    return CheckReport(tuple(violations))


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
    and is unique under the per-b uniqueness lookup.
    """
    failures: list[dict] = []
    pa = build_pa_object(A, budget=budget)
    if not pa.report.passed:
        failures.append({
            "stage": "pa_rgwa",
            "B": None,
            "triple": None,
            "conditions": list(pa.report.conditions()),
        })
    action_report: CheckReport | None = None
    if pa.object is not None:
        action = pa_action(pa)
        action_report = action.report
        if not action_report.passed:
            failures.append({
                "stage": "pa_action",
                "B": None,
                "triple": None,
                "conditions": list(action_report.conditions()),
            })
    pairs = 0
    if pa.object is not None:
        candidates = acting_objects if acting_objects is not None else standard_corpus()
        for B in candidates:
            if B.order > max_b_order:
                continue
            try:
                triples = enumerate_derived_actions(A, B, budget=budget)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"representability check for {A.name!r}: {exc}"
                ) from exc
            for t_index, triple in enumerate(triples):
                pairs += 1
                try:
                    phi = represent(A, B, triple, pa=pa)
                except (InputError, StructuralError) as exc:
                    failures.append({
                        "stage": "represent",
                        "B": B.name,
                        "triple": t_index,
                        "conditions": [str(exc)],
                    })
                    continue
                hom = is_morphism(phi)
                if not hom.passed:
                    failures.append({
                        "stage": "morphism",
                        "B": B.name,
                        "triple": t_index,
                        "conditions": list(hom.conditions()),
                    })
                try:
                    uniq = verify_uniqueness(A, B, triple, phi, pa=pa, budget=budget)
                except BudgetExceededError as exc:
                    raise BudgetExceededError(
                        f"representability check for {A.name!r}, "
                        f"B={B.name!r}, triple {t_index}: {exc}"
                    ) from exc
                if not uniq.passed:
                    failures.append({
                        "stage": "uniqueness",
                        "B": B.name,
                        "triple": t_index,
                        "conditions": list(uniq.conditions()),
                    })
    return RepresentabilityReport(
        base=A.name,
        pa_order=len(pa.elements),
        pa_rgwa=pa.report,
        pa_action=action_report,
        pairs_checked=pairs,
        failures=tuple(failures),
    )
