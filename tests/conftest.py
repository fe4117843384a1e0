from itertools import product

import numpy as np
import pytest

import rgwa


@pytest.fixture(scope="session")
def corpus():
    return rgwa.standard_corpus()


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


def shear_object() -> rgwa.FiniteGwaObject:
    """Z/4 (+) Z/4 where the exponent (x', y') applies the shear
    (x, y) -> (x, x'x + y).

    The action family has order 4, so exponentiating by w and by -w genuinely
    differ; the trivial corpus and the negation carriers never reach that.
    """
    def idx(x, y):
        return 4 * x + y

    n = 16
    add = [[0] * n for _ in range(n)]
    act = [[0] * n for _ in range(n)]
    for x in range(4):
        for y in range(4):
            for x2 in range(4):
                for y2 in range(4):
                    add[idx(x, y)][idx(x2, y2)] = idx((x + x2) % 4, (y + y2) % 4)
                    act[idx(x, y)][idx(x2, y2)] = idx(x, (x2 * x + y) % 4)
    return rgwa.make_object("shear16", n, add, act, require_reduced=True)


@pytest.fixture(scope="session")
def shear16():
    return shear_object()


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


def reference_enumerate_derived_actions(A, B) -> list[rgwa.DerivedActionTriple]:
    """Derived-action enumeration without pow-row pruning: every assignment
    of generator rows is multiplied out before any pow condition runs.  The
    oracle for the pruned ``enumerate_derived_actions``."""
    from rgwa.core import extend_crossed_map, generating_words
    from rgwa.extensions import (
        _DOT_ONLY,
        _DOT_UP,
        _POW_READING,
        _UP_ONLY,
        _holds,
        _map_families,
        _tables,
    )

    gensA, stepsA = generating_words(A)
    gensB, stepsB = generating_words(B)
    na = A.order
    ups = [up for up in _map_families(A, B, contravariant=True)
           if _holds(_tables(A, B, up=up), _UP_ONLY)]
    dots = [dot for dot in _map_families(A, B, contravariant=False)
            if _holds(_tables(A, B, dot=dot), _DOT_ONLY)]
    found = []
    for up in ups:
        for dot in dots:
            if not _holds(_tables(A, B, dot=dot, up=up), _DOT_UP):
                continue
            for assignment in product(
                product(range(na), repeat=len(gensA)), repeat=len(gensB)
            ):
                gen_rows = [extend_crossed_map(A, gensA, stepsA, images)
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
                if _holds(_tables(A, B, dot, up, pw), _POW_READING):
                    found.append(rgwa.DerivedActionTriple(A, B, dot, up, tuple(pw)))
    found.sort(key=rgwa.DerivedActionTriple.key)
    return found


def reference_enumerate_pentactions(obj) -> list[rgwa.Pentaction]:
    """Every (up, dotL, pow row) candidate built and run through all 19
    conditions, then sorted; the oracle for the factored
    ``enumerate_pentactions``."""
    from rgwa.core import (
        additive_bijections,
        extend_crossed_map,
        generating_words,
        invert_map,
        is_perfect,
    )
    from rgwa.pentactions import _BATCH_CHUNK, Pentaction, _passing

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
