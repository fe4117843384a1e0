from itertools import product

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


@pytest.fixture(scope="session")
def z4neg():
    return negation_cyclic(4)


@pytest.fixture(scope="session")
def z6neg():
    return negation_cyclic(6)


@pytest.fixture(scope="session")
def k4swap():
    """Klein four group acted on by the automorphism swapping the two
    middle elements at exponents 1 and 2."""
    base = rgwa.direct_sum(rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(2))
    swap = (0, 2, 1, 3)
    act = [[(x if y in (0, 3) else swap[x]) for y in range(4)] for x in range(4)]
    return rgwa.make_object("k4swap", 4, [list(r) for r in base.add], act,
                            require_reduced=True)


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
