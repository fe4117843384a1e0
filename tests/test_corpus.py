"""Corpus constructors."""

import pytest

import rgwa


def test_cyclic_trivial_one_is_the_zero_object():
    z1 = rgwa.cyclic_trivial(1)
    assert z1.order == 1 and z1.add == ((0,),) and z1.act == ((0,),)


def test_cyclic_rejects_zero_order():
    with pytest.raises(rgwa.InputError):
        rgwa.cyclic_trivial(0)


def test_klein_four_is_reduced():
    z2 = rgwa.cyclic_trivial(2)
    klein4 = rgwa.direct_sum(z2, z2, name="klein4")
    assert klein4.order == 4 and klein4.reduced
    # every non-zero element is an involution
    assert all(klein4.add[x][x] == 0 for x in range(4))


def test_direct_sum_indexing_convention():
    z2, z3 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
    s = rgwa.direct_sum(z2, z3)
    # (x1,y1)+(x2,y2) at index x*3+y
    assert s.add[1 * 3 + 2][1 * 3 + 2] == ((1 + 1) % 2) * 3 + (2 + 2) % 3


def test_direct_sum_requires_trivial_action(z4neg):
    with pytest.raises(rgwa.UnsupportedInputError):
        rgwa.direct_sum(z4neg, rgwa.cyclic_trivial(2))


def test_symmetric_group_table():
    table = rgwa.symmetric_group_table(3)
    assert len(table) == 6
    assert all(table[0][x] == x == table[x][0] for x in range(6))
    report = rgwa.check_axioms(6, table, [[x] * 6 for x in range(6)])
    assert {v.condition for v in report.violations} <= {"reduced.central", "reduced.collapse"}
    assert any(table[x][y] != table[y][x] for x in range(6) for y in range(6))


def test_conjugation_object_is_gwa_but_not_reduced():
    add, act = rgwa.s3_conjugation_tables()
    assert rgwa.check_axioms(6, add, act, require_reduced=False).passed
    assert not rgwa.check_axioms(6, add, act, require_reduced=True).passed


def test_conjugation_action_formula():
    add, act = rgwa.s3_conjugation_tables()
    neg = [next(y for y in range(6) if add[x][y] == 0) for x in range(6)]
    for x in range(6):
        for y in range(6):
            assert act[x][y] == add[add[neg[y]][x]][y]


def test_standard_corpus_contents(corpus):
    assert [o.name for o in corpus] == [
        "z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "klein4", "z2xz4",
    ]
    assert [o.order for o in corpus] == [1, 2, 3, 4, 5, 6, 7, 8, 4, 8]
    assert all(o.reduced for o in corpus)


def test_standard_corpus_is_built_once_and_returned_fresh():
    first = rgwa.standard_corpus()
    first.append(first[0])
    second = rgwa.standard_corpus()
    assert len(second) == 10 and second is not first
    assert all(x is y for x, y in zip(first, second))
