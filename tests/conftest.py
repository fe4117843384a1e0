from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import rgwa
from rgwa import core


@pytest.fixture(scope="session")
def corpus():
    return rgwa.standard_corpus()


def _clear_object_caches():
    for cached in core._OBJECT_CACHES:
        cached.cache_clear()


@pytest.fixture(params=["default-chunks", "one-candidate-chunks"])
def chunking(request, monkeypatch):
    """The default chunks, then chunks of one cell: every chunk holds one
    candidate, and the chunks of the additive-bijection search that keep no
    bijective row are empty.  The object caches are cleared before and
    after, so the cached factors are rebuilt in the chunks under test."""
    if request.param == "one-candidate-chunks":
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
    _clear_object_caches()
    yield
    _clear_object_caches()


def negation_cyclic(n: int, name: str | None = None) -> rgwa.FiniteGwaObject:
    """Z/n (n even) acted on by negation at odd exponents: x^y = (-1)^y x.

    A reduced object with a genuinely nontrivial action, used to exercise
    the action-sensitive code paths that the trivial corpus cannot reach.
    """
    assert n % 2 == 0
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    act = [[(x if y % 2 == 0 else (-x) % n) for y in range(n)] for x in range(n)]
    return rgwa.make_object(name or f"z{n}neg", n, add, act, require_reduced=True)


def negation_product(n1: int, n2: int) -> rgwa.FiniteGwaObject:
    """Z/n1 (+) Z/n2 (n1 even) acted on by negation when the exponent's first
    coordinate is odd; pairs are indexed x1 * n2 + x2, as in ``direct_sum``."""
    base = rgwa.direct_sum(rgwa.cyclic_trivial(n1), rgwa.cyclic_trivial(n2))
    n = n1 * n2
    act = [[(base.neg[x] if (y // n2) % 2 else x) for y in range(n)] for x in range(n)]
    return rgwa.make_object(f"neg{n1}x{n2}", n, [list(r) for r in base.add], act,
                            require_reduced=True)


@pytest.fixture(scope="session")
def z4neg():
    return negation_cyclic(4)


@pytest.fixture(scope="session")
def z6neg():
    return negation_cyclic(6)


def k4swap_object() -> rgwa.FiniteGwaObject:
    """Klein four group acted on by the automorphism swapping the two
    middle elements at exponents 1 and 2."""
    base = rgwa.direct_sum(rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(2))
    swap = (0, 2, 1, 3)
    act = [[(x if y in (0, 3) else swap[x]) for y in range(4)] for x in range(4)]
    return rgwa.make_object("k4swap", 4, [list(r) for r in base.add], act,
                            require_reduced=True)


@pytest.fixture(scope="session")
def k4swap():
    return k4swap_object()


def shear_object(k: int = 4) -> rgwa.FiniteGwaObject:
    """Z/k (+) Z/k where the exponent (x', y') applies the shear
    (x, y) -> (x, x'x + y), named ``shear<k*k>``.

    At k = 4 the action family has order 4, so exponentiating by w and by
    -w genuinely differ; the trivial corpus and the negation carriers never
    reach that.
    """
    def idx(x, y):
        return k * x + y

    n = k * k
    add = [[0] * n for _ in range(n)]
    act = [[0] * n for _ in range(n)]
    for x in range(k):
        for y in range(k):
            for x2 in range(k):
                for y2 in range(k):
                    add[idx(x, y)][idx(x2, y2)] = idx((x + x2) % k, (y + y2) % k)
                    act[idx(x, y)][idx(x2, y2)] = idx(x, (x2 * x + y) % k)
    return rgwa.make_object(f"shear{n}", n, add, act, require_reduced=True)


@pytest.fixture(scope="session")
def shear16():
    return shear_object()


def relabeled(obj: rgwa.FiniteGwaObject, seed: int) -> rgwa.FiniteGwaObject:
    """The same object under a seeded relabeling of its elements that fixes
    0, named ``<name>@<seed>``."""
    import random

    rest = list(range(1, obj.order))
    random.Random(seed).shuffle(rest)
    sigma = [0] + rest
    add = [[0] * obj.order for _ in range(obj.order)]
    act = [[0] * obj.order for _ in range(obj.order)]
    for x, y in product(range(obj.order), repeat=2):
        add[sigma[x]][sigma[y]] = sigma[obj.add[x][y]]
        act[sigma[x]][sigma[y]] = sigma[obj.act[x][y]]
    return rgwa.make_object(f"{obj.name}@{seed}", obj.order, add, act, require_reduced=True)


def reference_check_axioms(order, add, act, require_reduced=False) -> rgwa.CheckReport:
    """Pure-Python loop-nest scan of the axioms, in report order; the oracle
    for the vectorized ``check_axioms`` on in-range tables."""
    rng = range(order)
    violations = []

    def first(condition, cells, violated):
        for cell in cells:
            if violated(*cell):
                violations.append(rgwa.Violation(condition, cell))
                return

    triples = list(product(rng, rng, rng))
    singles = [(x,) for x in rng]
    first("group.assoc", triples,
          lambda x, y, z: add[add[x][y]][z] != add[x][add[y][z]])
    first("group.identity", singles, lambda x: add[0][x] != x or add[x][0] != x)
    first("group.inverse", singles,
          lambda x: not any(add[x][y] == 0 == add[y][x] for y in rng))
    first("action.add", triples,
          lambda g, g2, h: act[add[g][g2]][h] != add[act[g][h]][act[g2][h]])
    first("action.compose", triples,
          lambda g, h, h2: act[g][add[h][h2]] != act[act[g][h]][h2])
    first("action.zero", singles, lambda g: act[g][0] != g)
    if require_reduced:
        first("reduced.central", triples,
              lambda x, y, z: y != 0 and add[act[x][y]][z] != add[z][act[x][y]])
        first("reduced.collapse", triples,
              lambda x, y, z: act[x][act[y][z]] != act[x][y])
    return rgwa.CheckReport(tuple(violations))


def reference_neg(obj) -> tuple[int, ...]:
    """Per x, the first y with x+y = 0 = y+x, or -1 when there is none; the
    loop oracle for ``FiniteGwaObject.neg``."""
    out = [-1] * obj.order
    for x in range(obj.order):
        for y in range(obj.order):
            if obj.add[x][y] == 0 == obj.add[y][x]:
                out[x] = y
                break
    return tuple(out)


def reference_pa_tables(obj, elements):
    """Index tables of pentaction sum and power over ``elements``, filled one
    row p at a time by array arithmetic on the stacked component tables and
    a sorted byte-view lookup of each result among the element keys.  A
    result outside the set is -1, and the first such cell of each table in
    row-major order is its closure gap ("pa.closure.add" / "pa.closure.act").
    The oracle for the factored tables of ``build_pa_object``."""
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

    def lookup(rows):
        pos = np.searchsorted(sorted_bytes, np.ascontiguousarray(rows).view(as_bytes).ravel())
        hit = order[np.minimum(pos, m - 1)]
        return np.where((keys[hit] == rows).all(axis=1), hit, -1)

    ident = np.broadcast_to(np.arange(n, dtype=np.intp), (m, n))
    add = np.empty((m, m), dtype=np.intp)
    act = np.empty((m, m), dtype=np.intp)
    first_gap = {}
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
                first_gap[condition] = rgwa.Violation(condition, (i, int(np.argmax(row < 0))))
    gaps = tuple(first_gap[c] for c in ("pa.closure.add", "pa.closure.act") if c in first_gap)
    return add, act, gaps


def reference_build_pa_object(obj) -> SimpleNamespace:
    """PA(A) from the m x m reference tables over the zero pentaction and
    the rest of the enumerated set, scanned by ``check_axioms``, as a record
    of its base, elements, object and report; the oracle for the factored
    ``build_pa_object``."""
    zero = rgwa.zero_pentaction(obj)
    elements = [zero] + [p for p in rgwa.enumerate_pentactions(obj) if p != zero]
    add, act, gaps = reference_pa_tables(obj, elements)
    if gaps:
        return SimpleNamespace(base=obj, elements=tuple(elements), object=None,
                               report=rgwa.CheckReport(gaps))
    m = len(elements)
    report = rgwa.check_axioms(m, add.tolist(), act.tolist(), require_reduced=True)
    assembled = rgwa.FiniteGwaObject(
        name=f"PA({obj.name})", order=m, add=tuple(map(tuple, add.tolist())),
        act=tuple(map(tuple, act.tolist())), reduced=report.passed,
    )
    return SimpleNamespace(base=obj, elements=tuple(elements), object=assembled, report=report)


def reference_pa_action(pa) -> rgwa.DerivedActionTriple:
    """The action of the assembled object on its base, read off each
    pentaction's tables and scanned by ``check_derived_action`` with
    B = PA(A) over the m x m tables; the oracle for the factored
    ``pa_action``."""
    if pa.object is None:
        raise rgwa.StructuralError(f"PA({pa.base.name}) did not close under its operations")
    base = pa.base
    dot = tuple(p.dotL for p in pa.elements)
    up = tuple(tuple(p.up[a] for p in pa.elements) for a in range(base.order))
    pw = tuple(p.pow for p in pa.elements)
    triple = rgwa.DerivedActionTriple(base, pa.object, dot, up, pw)
    return rgwa.DerivedActionTriple(base, pa.object, dot, up, pw,
                                    report=rgwa.check_derived_action(triple))


def reference_is_morphism(f: rgwa.GwaMorphism) -> rgwa.CheckReport:
    """Two-loop scan of the preservation laws; the oracle for ``is_morphism``."""
    src, tgt, m = f.source, f.target, f.map
    violations = []
    for cid, s_op, t_op in (("hom.add", src.add, tgt.add), ("hom.act", src.act, tgt.act)):
        for x, y in product(range(src.order), repeat=2):
            if m[s_op[x][y]] != t_op[m[x]][m[y]]:
                violations.append(rgwa.Violation(cid, (x, y)))
                break
    return rgwa.CheckReport(tuple(violations))


def reference_verify_uniqueness(A, B, triple, phi, pa) -> rgwa.CheckReport:
    """Exhaustive search over all m^|B| maps B -> PA(A) that reproduce the
    triple's three action components; the oracle for ``verify_uniqueness``."""
    m = len(pa.elements)

    def satisfies(psi):
        for b in range(B.order):
            pent = pa.elements[psi[b]]
            if tuple(triple.dot[b]) != pent.dotL:
                return False
            if tuple(triple.pow[b]) != pent.pow:
                return False
            if any(triple.up[a][b] != pent.up[a] for a in range(A.order)):
                return False
        return True

    matches = [psi for psi in product(range(m), repeat=B.order) if satisfies(psi)]
    violations = []
    if tuple(phi.map) not in matches:
        violations.append(rgwa.Violation("uniq.phi", tuple(phi.map)))
    extras = [psi for psi in matches if psi != tuple(phi.map)]
    for psi in extras[:1]:
        violations.append(rgwa.Violation("uniq.extra", psi))
    return rgwa.CheckReport(tuple(violations))


def reference_index(pa) -> dict:
    """The five tables of each element of ``pa`` -> its index, from a scan
    of pa.elements."""
    return {tuple(p.tables().values()): i for i, p in enumerate(pa.elements)}


def reference_represent(A, B, triple, pa, index=None) -> rgwa.GwaMorphism:
    """``represent`` for a verified derived action, with each image
    (dot[b], dot[-b], up[., b], up[., -b], pow[b]) looked up in
    ``reference_index(pa)``; the oracle for the factor lookups of
    ``represent`` and of the batch check, with the same error messages."""
    if pa.object is None or not pa.report.passed:
        raise rgwa.StructuralError(f"PA({A.name}) is not a verified reduced object; "
                                   f"failing: {', '.join(pa.report.conditions())}")
    index = reference_index(pa) if index is None else index
    mapping = []
    for b in range(B.order):
        nb = B.neg[b]
        cand = rgwa.Pentaction(A, tuple(triple.dot[b]), tuple(triple.dot[nb]),
                               tuple(row[b] for row in triple.up),
                               tuple(row[nb] for row in triple.up), tuple(triple.pow[b]))
        key = tuple(cand.tables().values())
        if key not in index:
            report = rgwa.check_pentaction(cand)
            detail = (", ".join(report.conditions()) if not report.passed
                      else "valid pentaction missing from the enumerated set")
            raise rgwa.StructuralError(
                f"image of b={b} is not available in PA({A.name}): {detail}")
        mapping.append(index[key])
    return rgwa.GwaMorphism(B, pa.object, tuple(mapping))


def reference_triple_failures(A, B, triples, pa, budget=rgwa.DEFAULT_BUDGET) -> list:
    """The represent, morphism and uniqueness failures of derived actions of
    B on A, one triple at a time through ``reference_represent``,
    ``is_morphism`` and ``verify_uniqueness``; the oracle for the batch
    check."""
    failures = []
    index = reference_index(pa)
    for t_index, triple in enumerate(triples):
        def failure(stage, conditions):
            failures.append({"stage": stage, "B": B.name, "triple": t_index,
                             "conditions": conditions})

        try:
            phi = reference_represent(A, B, triple, pa, index)
        except (rgwa.InputError, rgwa.StructuralError) as exc:
            failure("represent", [str(exc)])
            continue
        hom = rgwa.is_morphism(phi)
        if not hom.passed:
            failure("morphism", list(hom.conditions()))
        try:
            uniq = rgwa.verify_uniqueness(A, B, triple, phi, pa=pa, budget=budget)
        except rgwa.BudgetExceededError as exc:
            raise rgwa.BudgetExceededError(
                f"representability check for {A.name!r}, "
                f"B={B.name!r}, triple {t_index}: {exc}") from exc
        if not uniq.passed:
            failure("uniqueness", list(uniq.conditions()))
    return failures


def reference_verify_representability(A, max_b_order=3, budget=rgwa.DEFAULT_BUDGET,
                                      acting_objects=None) -> rgwa.RepresentabilityReport:
    """``verify_representability`` over the public triple list of each B,
    checked by ``reference_triple_failures``, or reported once per B when
    PA(A) is not reduced.  The triples read PA(A) built under the default
    budget, since ``budget`` bounds the searches and the per-triple loop
    reads the assembled tables."""
    failures = []
    pa = rgwa.PAObject(A, rgwa.build_pa_object(A, budget=budget).report)
    if not pa.report.passed:
        failures.append({"stage": "pa_rgwa", "B": None, "triple": None,
                         "conditions": list(pa.report.conditions())})
    action_report = None
    if pa.object is not None:
        action_report = rgwa.pa_action(pa).report
        if not action_report.passed:
            failures.append({"stage": "pa_action", "B": None, "triple": None,
                             "conditions": list(action_report.conditions())})
    pairs = 0
    unverified = (f"PA({A.name}) is not a verified reduced object; "
                  f"failing: {', '.join(pa.report.conditions())}")
    if pa.object is not None:
        for B in acting_objects if acting_objects is not None else rgwa.standard_corpus():
            if B.order > max_b_order:
                continue
            try:
                triples = rgwa.enumerate_derived_actions(A, B, budget=budget)
            except rgwa.BudgetExceededError as exc:
                raise rgwa.BudgetExceededError(
                    f"representability check for {A.name!r}: {exc}") from exc
            pairs += len(triples)
            if triples and not pa.report.passed:
                # every triple fails represent with one message: once per B
                failures.append({"stage": "represent", "B": B.name, "triple": None,
                                 "conditions": [unverified]})
            else:
                failures += reference_triple_failures(A, B, triples, pa, budget)
    return rgwa.RepresentabilityReport(A.name, len(pa.elements), pa.report, action_report,
                                       pairs, tuple(failures))


def reference_check_derived_action(triple) -> rgwa.CheckReport:
    """Pure-Python loop-nest scan of the 22 derived-action conditions, in
    report order; the oracle for the vectorized ``check_derived_action`` on
    in-range tables."""
    A, B = triple.A, triple.B
    addA, actA = A.add, A.act
    addB, actB = B.add, B.act
    dot, up, pw = triple.dot, triple.up, triple.pow
    ra, rb = range(A.order), range(B.order)
    violations = []

    def scan(condition, space, violated):
        for w in space:
            if violated(*w):
                violations.append(rgwa.Violation(condition, w))
                return

    scan("ga.1", product(rb, rb, ra),
         lambda b, b2, a: dot[addB[b][b2]][a] != dot[b][dot[b2][a]])
    scan("ga.2", product(rb, ra, ra),
         lambda b, a, a2: dot[b][addA[a][a2]] != addA[dot[b][a]][dot[b][a2]])
    scan("ga.3", product(ra),
         lambda a: dot[0][a] != a)
    scan("1A", product(ra, ra, rb),
         lambda a, a2, b: up[addA[a][a2]][b] != addA[up[a][b]][up[a2][b]])
    scan("2A", product(rb, rb, ra),
         lambda b, b2, a: pw[addB[b][b2]][a] != addA[pw[b][a]][dot[b][pw[b2][a]]])
    scan("3A", product(rb, ra, ra),
         lambda b, a, a2: a2 != 0 and actA[dot[b][a]][a2] != actA[a][a2])
    scan("4A", product(rb, ra, rb),
         lambda b, a, b2: up[dot[b][a]][b2] != up[a][b2])
    scan("1B", product(rb, ra, ra),
         lambda b, a, a2: pw[b][addA[a][a2]] != addA[actA[pw[b][a]][a2]][pw[b][a2]])
    scan("2B", product(ra, rb, rb),
         lambda a, b, b2: up[a][addB[b][b2]] != up[up[a][b]][b2])
    scan("3B", product(ra, rb, ra),
         lambda a, b, a2: up[actA[a][dot[b][a2]]][b] != actA[up[a][b]][a2])
    scan("4B", product(rb, rb, ra),
         lambda b, b2, a: up[pw[b][dot[b2][a]]][b2] != pw[actB[b][b2]][a])
    scan("zeroB", product(ra),
         lambda a: up[a][0] != a)
    scan("a1", product(rb, ra, ra),
         lambda b, a, a2: a2 != 0 and dot[b][actA[a][a2]] != actA[a][a2])
    scan("a2", product(rb, ra, rb),
         lambda b, a, b2: b2 != 0 and dot[b][up[a][b2]] != up[a][b2])
    scan("a3", product(rb, rb, ra),
         lambda b, b2, a: b2 != 0 and dot[actB[b][b2]][a] != a)
    scan("a4", product(rb, ra, ra),
         lambda b, a, a2: pw[b][actA[a][a2]] != pw[b][a])
    scan("a5", product(ra, rb, rb),
         lambda a, b, b2: up[a][actB[b][b2]] != up[a][b])
    scan("a6", product(ra, rb, ra),
         lambda a, b, a2: b != 0 and addA[up[a][b]][a2] != addA[a2][up[a][b]])
    scan("a7", product(ra, ra, rb),
         lambda a, a2, b: actA[a][up[a2][b]] != actA[a][a2])
    scan("a8", product(ra, rb, ra),
         lambda a, b, a2: a2 != 0 and actA[a][pw[b][a2]] != a)
    scan("a9", product(rb, rb, ra),
         lambda b, b2, a: pw[b][pw[b2][a]] != 0)
    scan("a10", product(rb, ra, rb),
         lambda b, a, b2: pw[b][up[a][b2]] != pw[b][a])
    return rgwa.CheckReport(tuple(violations))


def reference_check_pentaction(cand) -> rgwa.CheckReport:
    """Pure-Python loop-nest scan of the 19 pentaction conditions, in report
    order; the oracle for the vectorized ``check_pentaction`` on in-range
    tables."""
    obj = cand.parent
    add, act, neg = obj.add, obj.act, obj.neg
    dotL, dotR, up, upL, pw = cand.dotL, cand.dotR, cand.up, cand.upL, cand.pow
    rng = range(obj.order)
    pairs, singles = list(product(rng, rng)), [(a,) for a in rng]
    violations = []

    def scan(condition, space, violated):
        for w in space:
            if violated(*w):
                violations.append(rgwa.Violation(condition, w))
                return

    def additive(f):
        return lambda a, a2: f[add[a][a2]] != add[f[a]][f[a2]]

    def act_first_invariant(f):
        return lambda a, a2: a2 != 0 and act[f[a]][a2] != act[a][a2]

    def fixes_action_values(f):
        return lambda a, a2: a2 != 0 and f[act[a][a2]] != act[a][a2]

    def central_if_moving(f):
        moves = any(f[a] != a for a in rng)
        return lambda a, z: moves and add[f[a]][z] != add[z][f[a]]

    def exponent_equivalent(f):
        return lambda a, a2: act[a][f[a2]] != act[a][a2]

    def mutual_inverse(f, g):
        return lambda a: g[f[a]] != a or f[g[a]] != a

    scan("p1", pairs, additive(dotL))
    scan("p1d", pairs, additive(dotR))
    scan("p2", pairs, additive(up))
    scan("p2d", pairs, additive(upL))
    scan("p3", pairs, act_first_invariant(dotL))
    scan("p3d", pairs, act_first_invariant(dotR))
    scan("p4", pairs, lambda a, a2: pw[add[a][a2]] != add[act[pw[a]][a2]][pw[a2]])
    scan("p5", pairs, lambda a, a2: up[act[a][dotL[a2]]] != act[up[a]][a2])
    scan("p5d", pairs, lambda a, a2: upL[act[a][neg[dotR[a2]]]] != act[upL[a]][neg[a2]])
    scan("p6", pairs, fixes_action_values(dotL))
    scan("p6d", pairs, fixes_action_values(dotR))
    scan("p7", pairs, lambda a, a2: pw[act[a][a2]] != pw[a])
    scan("p8", pairs, central_if_moving(up))
    scan("p8d", pairs, central_if_moving(upL))
    scan("p9", pairs, exponent_equivalent(up))
    scan("p9d", pairs, exponent_equivalent(upL))
    scan("p10", pairs, lambda a, a2: a2 != 0 and act[a][pw[a2]] != a)
    scan("p11", singles, mutual_inverse(dotL, dotR))
    scan("p12", singles, mutual_inverse(up, upL))
    return rgwa.CheckReport(tuple(violations))


def reference_extend_additive(obj, gens, steps, images) -> tuple[int, ...]:
    """Value table of the additive extension of gens -> images, one step at
    a time (unverified)."""
    out = [0] * obj.order
    for elem, parent, gi, sign in steps:
        img = images[gi] if sign > 0 else obj.neg[images[gi]]
        out[elem] = obj.add[out[parent]][img]
    return tuple(out)


def reference_extend_crossed_map(obj, gens, steps, images) -> tuple[int, ...]:
    """Extend generator values along f(x+y) = f(x)^y + f(y), one step at a
    time (unverified)."""
    add, act, neg = obj.add, obj.act, obj.neg
    out = [0] * obj.order
    for elem, parent, gi, sign in steps:
        g, img = gens[gi], images[gi]
        if sign > 0:
            out[elem] = add[act[out[parent]][g]][img]
        else:
            out[elem] = act[add[out[parent]][neg[img]]][neg[g]]
    return tuple(out)


def reference_additive_bijections(obj) -> list[tuple[int, ...]]:
    """Every generator image extended one candidate at a time and kept when
    bijective and additive by a two-loop check; the oracle for the walked
    ``additive_bijections``."""
    from rgwa.core import generating_words

    gens, steps = generating_words(obj)
    rng = range(obj.order)
    found = set()
    for images in product(rng, repeat=len(gens)):
        f = reference_extend_additive(obj, gens, steps, images)
        if len(set(f)) == obj.order and all(
            f[obj.add[x][y]] == obj.add[f[x]][f[y]] for x in rng for y in rng
        ):
            found.add(f)
    return sorted(found)


def scan_passes(t, conditions, sizes) -> bool:
    """True when the one-candidate scan ``core._violations`` finds no
    violation of the candidate rows on the candidate in t."""
    from rgwa.core import _violations

    return next(_violations(t, conditions, sizes), None) is None


def assert_rows_read_only_their_tables(make, tables, conditions, sizes) -> None:
    """Each candidate row, run on tables built by ``make`` from only the
    candidate tables it reads (every other candidate table None), reports
    what the full scan of ``tables`` reports for it."""
    from rgwa.core import _passing, _violations

    full = list(_violations(make(**tables), conditions, sizes))
    for row in conditions:
        only = make(**{name: tables[name] for name in row[2]})
        assert list(_violations(only, [row], sizes)) == [
            v for v in full if v.condition == row[0]
        ], row[0]
        assert _passing(only, [row], sizes).tolist() == [row[0] not in {v.condition for v in full}]


def assert_batch_verdicts(make, batch, conditions, sizes) -> None:
    """``core._passing`` over a batch of (k, ...) candidate tables equals one
    ``core._violations`` scan per candidate, for each row alone and for the
    whole table."""
    from rgwa.core import _passing

    k = len(next(iter(batch.values())))
    for rows in [[row] for row in conditions] + [list(conditions)]:
        one_by_one = [
            scan_passes(make(**{name: table[i:i + 1] for name, table in batch.items()}), rows, sizes)
            for i in range(k)
        ]
        assert _passing(make(**batch), rows, sizes).tolist() == one_by_one, [r[0] for r in rows]


def reference_map_families(A, B, contravariant: bool) -> list:
    """One family per assignment of bijections to B's generators, composed
    one step at a time and checked alone by the 2B (up) or ga.1 (dot) scan;
    the oracle for the walked ``extensions._families`` (contravariant) and for the
    lemma that every dot map is the identity (covariant)."""
    from rgwa.core import generating_words, invert_map
    from rgwa.extensions import _CONDITIONS, _sizes, _tables

    bij = reference_additive_bijections(A)
    gensB, stepsB = generating_words(B)
    ra = range(A.order)
    name, law = ("up", "2B") if contravariant else ("dot", "ga.1")
    law = [c for c in _CONDITIONS if c[0] == law]
    out = []
    for images in product(bij, repeat=len(gensB)):
        fam = [()] * B.order
        fam[0] = tuple(ra)
        for elem, parent, gi, sign in stepsB:
            g = images[gi] if sign > 0 else invert_map(images[gi])
            if contravariant:
                fam[elem] = tuple(g[fam[parent][a]] for a in ra)
            else:
                fam[elem] = tuple(fam[parent][g[a]] for a in ra)
        table = tuple(zip(*fam)) if contravariant else tuple(fam)
        if scan_passes(_tables(A, B, **{name: [table]}), law, _sizes(A, B)):
            out.append(table)
    return out


def reference_enumerate_derived_actions(A, B) -> list[rgwa.DerivedActionTriple]:
    """Derived-action enumeration without pow-row pruning: every assignment
    of generator rows is multiplied out before any pow condition runs.  The
    oracle for the pruned ``enumerate_derived_actions``; its families come
    from ``reference_map_families``."""
    from rgwa.core import generating_words
    from rgwa.extensions import _DOT_ONLY, _DOT_UP, _POW_READING, _UP_ONLY, _sizes, _tables

    gensA, stepsA = generating_words(A)
    gensB, stepsB = generating_words(B)
    na, sizes = A.order, _sizes(A, B)
    ups = [up for up in reference_map_families(A, B, contravariant=True)
           if scan_passes(_tables(A, B, up=[up]), _UP_ONLY, sizes)]
    dots = [dot for dot in reference_map_families(A, B, contravariant=False)
            if scan_passes(_tables(A, B, dot=[dot]), _DOT_ONLY, sizes)]
    found = []
    for up in ups:
        for dot in dots:
            if not scan_passes(_tables(A, B, dot=[dot], up=[up]), _DOT_UP, sizes):
                continue
            for assignment in product(
                product(range(na), repeat=len(gensA)), repeat=len(gensB)
            ):
                gen_rows = [reference_extend_crossed_map(A, gensA, stepsA, images)
                            for images in assignment]
                pw = [()] * B.order
                pw[0] = (0,) * na
                for elem, parent, gi, sign in stepsB:
                    row_g = gen_rows[gi]
                    if sign > 0:
                        pw[elem] = tuple(A.add[pw[parent][a]][dot[parent][row_g[a]]]
                                         for a in range(na))
                    else:
                        pw[elem] = tuple(A.add[pw[parent][a]][A.neg[dot[elem][row_g[a]]]]
                                         for a in range(na))
                if scan_passes(_tables(A, B, [dot], [up], [pw]), _POW_READING, sizes):
                    found.append(rgwa.DerivedActionTriple(A, B, dot, up, tuple(pw)))
    found.sort(key=rgwa.DerivedActionTriple.key)
    return found


def reference_enumerate_pentactions(obj) -> list[rgwa.Pentaction]:
    """Every (up, dotL, pow row) candidate built and run through all 19
    conditions, then sorted; the oracle for the factored
    ``enumerate_pentactions``."""
    from rgwa.core import _violated, additive_bijections, generating_words, invert_map, is_perfect
    from rgwa.pentactions import _CONDITIONS, Pentaction, _tables

    batch = 8192
    n = obj.order
    ups = additive_bijections(obj)
    identity = tuple(range(n))
    dotls = [identity] if is_perfect(obj) else ups
    gens, steps = generating_words(obj)
    rows = [
        reference_extend_crossed_map(obj, gens, steps, images)
        for images in product(range(n), repeat=len(gens))
    ]
    found: list[Pentaction] = []
    chunk: list[Pentaction] = []

    def flush() -> None:
        if not chunk:
            return
        # every mask over the whole batch, unchunked
        t, ok = _tables(obj, chunk), np.ones(len(chunk), dtype=bool)
        for *_, mask in _CONDITIONS:
            ok &= ~_violated(mask(t, slice(None)))
        found.extend(cand for cand, good in zip(chunk, ok) if good)
        chunk.clear()

    for up in ups:
        upl = invert_map(up)
        for dotl in dotls:
            dotr = invert_map(dotl)
            for pw in rows:
                chunk.append(Pentaction(obj, dotl, dotr, up, upl, pw))
                if len(chunk) >= batch:
                    flush()
    flush()
    found.sort(key=Pentaction.key)
    return found


def reference_weak_stabilizer(obj) -> rgwa.ElementSet:
    """The three obstruction families as whole P x P x n arrays; the oracle
    for the chunked ``weak_stabilizer``."""
    pents = rgwa.enumerate_pentactions(obj)
    up = np.asarray([p.up for p in pents], dtype=np.int64)
    pw = np.asarray([p.pow for p in pents], dtype=np.int64)
    add = np.asarray(obj.add, dtype=np.int64)
    neg = np.asarray(obj.neg, dtype=np.int64)
    diff = add[:, neg]  # diff[x, y] = x - y

    family1 = pw[:, pw]  # [p, q, a] = p.pow(q.pow(a))
    family2 = diff[pw[:, up], pw[:, None, :]]
    compose = up[:, up]  # [x, y, a] = x.up(y.up(a))
    family3 = diff[compose.swapaxes(0, 1), compose]
    members = set(np.unique(family1))
    members.update(np.unique(family2))
    members.update(np.unique(family3))
    return rgwa.ElementSet(obj, tuple(int(v) for v in sorted(members)))


def reference_noether_quotient(obj, budget=rgwa.DEFAULT_BUDGET) -> rgwa.NoetherChain:
    """The quotient chain as a fixed-point loop: pull the current quotient's
    weak stabilizer back along the projection, close it up with the
    subgroup so far, and re-quotient the carrier until the weak stabilizer
    vanishes; the oracle for the one-step ``noether_quotient``."""
    if not (obj.is_abelian and obj.has_trivial_action):
        raise rgwa.UnsupportedInputError(f"{obj.name!r} is not abelian with trivial action")
    chain, current = [], obj
    projection, w_members = tuple(range(obj.order)), ()
    for _ in range(obj.order + 1):
        wst = rgwa.weak_stabilizer(current, budget=budget)
        if wst.is_zero():
            return rgwa.NoetherChain(obj, tuple(chain), current)
        pullback = {x for x in range(obj.order) if projection[x] in wst}
        w_next = rgwa.subobject_closure(obj, pullback | set(w_members))
        assert len(w_next) > len(w_members), "the quotient chain failed to grow"
        chain.append(w_next)
        w_members = w_next.members
        tau = rgwa.quotient_map(obj, w_next)
        current, projection = tau.target, tau.map
    raise AssertionError("the quotient chain did not terminate")


def reference_pentactions_document(obj, pretty: bool = False) -> str:
    """The `rgwa pentactions` document built entry by entry: every
    pentaction enumerated as an object, turned into a dict and dumped with
    ``dumps_canonical``; the oracle for ``files.dumps_pentactions``, which
    encodes each factor row once."""
    from rgwa.files import dumps_canonical, pentaction_to_json

    pents = rgwa.enumerate_pentactions(obj)
    return dumps_canonical({
        "object": obj.name,
        "count": len(pents),
        "pentactions": [pentaction_to_json(p) for p in pents],
    }, pretty=pretty)
