"""PA(A) assembly, its action, and the factorization morphism."""

import random
import re
from dataclasses import FrozenInstanceError, replace
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rgwa
from conftest import (
    PERFBENCH,
    k4swap_object,
    negation_cyclic,
    negation_product,
    perfbench_object,
    reference_build_pa_object,
    reference_pa_action,
    reference_pa_tables,
    reference_represent,
    reference_verify_representability,
    reference_verify_uniqueness,
    reference_weak_stabilizer,
    relabeled,
    shear_object,
)
from rgwa import core, representability
from rgwa.core import invert_map
from rgwa.extensions import _CONDITIONS, DerivedActionTriple
from rgwa.pentactions import _canonical_factors, _map_factor, _pa_factors, _pow_factor
from rgwa.report import PASSED
from rgwa.pa import _OBSTRUCTIONS, _assemble, _pa_action_report, _pa_report
from rgwa.representability import PAObject


def trivial_triple(A, B):
    ident = tuple(range(A.order))
    return DerivedActionTriple(
        A, B,
        dot=tuple(ident for _ in range(B.order)),
        up=tuple((a,) * B.order for a in range(A.order)),
        pow=tuple((0,) * A.order for _ in range(B.order)),
    )


class TestBuildPaObject:
    def test_zero_object(self):
        pa = rgwa.build_pa_object(rgwa.cyclic_trivial(1))
        assert len(pa.elements) == 1
        assert pa.report.passed
        assert pa.object.order == 1

    def test_zero_pentaction_sits_at_index_zero(self, corpus):
        for obj in corpus[:4]:
            pa = rgwa.build_pa_object(obj)
            assert pa.elements[0] == rgwa.zero_pentaction(obj)

    def test_z2_assembles_to_the_two_element_group(self):
        pa = rgwa.build_pa_object(rgwa.cyclic_trivial(2))
        assert len(pa.elements) == 2
        assert pa.report.passed
        assert pa.object.add == ((0, 1), (1, 0))

    def test_z3_assembles_to_order_six(self):
        pa = rgwa.build_pa_object(rgwa.cyclic_trivial(3))
        assert len(pa.elements) == 6
        assert pa.report.passed
        # nontrivial action table, yet still a reduced object
        assert any(
            pa.object.act[i][j] != i
            for i in range(6) for j in range(6)
        )

    def test_tables_index_the_operations(self):
        pa = rgwa.build_pa_object(rgwa.cyclic_trivial(3))
        for i, p in enumerate(pa.elements):
            for j, q in enumerate(pa.elements):
                assert pa.elements[pa.object.add[i][j]] == rgwa.pent_add(p, q)
                assert pa.elements[pa.object.act[i][j]] == rgwa.pent_pow(p, q)

    def test_negation_matches_the_opposite_pentaction(self, z4neg):
        for obj in [rgwa.cyclic_trivial(3), z4neg]:
            pa = rgwa.build_pa_object(obj)
            for i, p in enumerate(pa.elements):
                assert pa.object.neg[i] == pa.index_of(rgwa.pent_neg(p))

    def test_report_is_the_axiom_scan_of_the_tables(self, corpus, z4neg, k4swap, shear16):
        # every base whose PA(A) has at most 256 elements, against the m x m
        # reference tables scanned by check_axioms
        for obj in list(corpus) + [z4neg, k4swap, shear16, negation_cyclic(16),
                                   negation_product(2, 8)]:
            pa, want = rgwa.build_pa_object(obj), reference_build_pa_object(obj)
            m = pa.object.order
            assert m <= 256
            assert pa.elements == want.elements, obj.name
            assert pa.object.table_equal(want.object), obj.name
            assert (pa.object.name, pa.object.reduced) == (want.object.name, want.object.reduced)
            assert pa.report == want.report, obj.name

    def test_perfect_zero_wst_witness_passes(self, z4neg, k4swap):
        for obj in (z4neg, k4swap):
            assert rgwa.is_perfect(obj)
            assert rgwa.weak_stabilizer(obj).is_zero()
            pa = rgwa.build_pa_object(obj)
            assert pa.report.passed, pa.report.conditions()


class TestPaObjectViews:
    """A PAObject reads the factor tables of its base; its m elements and
    its m x m tables are built only when read."""

    def test_views_are_built_on_first_access(self, z4neg):
        pa, want = rgwa.build_pa_object(z4neg), reference_build_pa_object(z4neg)
        assert pa.action_report == reference_pa_action(want).report
        assert not {"elements", "object"} & set(pa.__dict__)
        assert pa.order == len(want.elements) == len(pa.elements)
        assert pa.elements == want.elements and pa.object.table_equal(want.object)

    def test_object_is_charged_its_cells(self, z4neg):
        report, m = rgwa.build_pa_object(z4neg).report, rgwa.build_pa_object(z4neg).order
        pa = PAObject(z4neg, report, budget=m * m - 1)
        assert pa.action_report.passed
        with pytest.raises(rgwa.BudgetExceededError,
                           match=rf"assembling the operation tables of PA\({z4neg.name}\) "
                                 rf"needs {m * m} cells, budget is {m * m - 1}"):
            pa.object
        assert PAObject(z4neg, report, budget=m * m).object.order == m

def product_elements(obj, ups, pows):
    """The pentactions (id, id, up, up^-1, pow) of the product ups x pows,
    up outer."""
    ident = tuple(range(obj.order))
    return [rgwa.Pentaction(obj, ident, ident, up, invert_map(up), pw)
            for up in ups for pw in pows]


def scalar_pa_tables(elements):
    """Sum and power tables from one pent_add / pent_pow call per cell; a
    result outside ``elements`` is -1, and the first such cell of each table
    in row-major order is its closure gap."""
    index = {p.key(): i for i, p in enumerate(elements)}
    tables, gaps = [], []
    for op, condition in ((rgwa.pent_add, "pa.closure.add"), (rgwa.pent_pow, "pa.closure.act")):
        table = [[index.get(op(p, q).key(), -1) for q in elements] for p in elements]
        cells = [(i, j) for i, row in enumerate(table) for j, v in enumerate(row) if v < 0]
        if cells:
            gaps.append(rgwa.Violation(condition, cells[0]))
        tables.append(table)
    return tables[0], tables[1], tuple(gaps)


def pentaction_factors(obj):
    """The map factor and the pow factor of obj as tuples of value tables."""
    return tuple(tuple(map(tuple, x.tolist())) for x in (_map_factor(obj), _pow_factor(obj)))


def factored_tables(obj, ups, pows):
    """The assembled tables of the product ups x pows."""
    return tuple(x.tolist() for x in _assemble(_pa_factors(obj, ups, pows)))


def spread_up_factors(klein4):
    """Up tables spread over the non-abelian automorphism group of klein4,
    so that the map part of a sum depends on the order of composition."""
    return rgwa.additive_bijections(klein4), [(0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1)]


class TestPaFill:
    def test_array_fill_matches_scalar_operations(self, corpus, z4neg, shear16):
        objs = [o for o in corpus if len(rgwa.enumerate_pentactions(o)) <= 96]
        assert len(objs) == len(corpus) - 1  # all but z2xz4 (m = 256)
        for obj in objs + [z4neg, shear16]:
            elements = rgwa.enumerate_pentactions(obj)
            add, act, gaps = scalar_pa_tables(elements)
            assert factored_tables(obj, *pentaction_factors(obj)) == (add, act), obj.name
            assert gaps == ()

    def test_truncated_element_lists_report_the_scalar_gaps(self, corpus, z4neg, shear16):
        # drop one map part or one pow table from the factors; the elements
        # are the product of what is left, which does not close: the
        # reference tables and their gaps are the scalar ones, and the
        # assembled tables hold -1 at the same cells
        by_name = {o.name: o for o in corpus}
        seen = set()
        for obj in (by_name["z3"], by_name["z7"], z4neg, shear16):
            ups, pows = pentaction_factors(obj)
            variants = [("map", ups[:k] + ups[k + 1:], pows)
                        for k in {0, 1, len(ups) // 2, len(ups) - 1}]
            variants += [("pow", ups, pows[:k] + pows[k + 1:])
                         for k in {0, 1, len(pows) // 2, len(pows) - 1}]
            for dropped, sub_ups, sub_pows in variants:
                elements = product_elements(obj, sub_ups, sub_pows)
                add, act, gaps = reference_pa_tables(obj, elements)
                assert (add.tolist(), act.tolist(), gaps) == scalar_pa_tables(elements)
                assert factored_tables(obj, sub_ups, sub_pows) == (add.tolist(), act.tolist())
                seen.update((obj.name, dropped, v.condition) for v in gaps)
        # on every base, some lost map part and some lost pow table each
        # leave a gap, and gaps occur in both tables
        assert {(name, dropped) for name, dropped, _ in seen} == {
            (obj.name, dropped) for obj in (by_name["z3"], by_name["z7"], z4neg, shear16)
            for dropped in ("map", "pow")}
        assert {condition for *_, condition in seen} == {"pa.closure.add", "pa.closure.act"}

    @pytest.mark.parametrize("chunk_cells", [None, 1], ids=["default-chunks", "one-cell-chunks"])
    def test_pow_lookups_in_chunks(self, corpus, shear16, chunk_cells, monkeypatch):
        # at one cell per chunk each chunk of the pow lookups of _assemble
        # holds one pow table of x
        if chunk_cells is not None:
            monkeypatch.setattr(core, "_CHUNK_CELLS", chunk_cells)
        by_name = {o.name: o for o in corpus}
        for obj in (by_name["z3"], by_name["z5"], shear16):
            add, act, _ = scalar_pa_tables(rgwa.enumerate_pentactions(obj))
            assert factored_tables(obj, *pentaction_factors(obj)) == (add, act), obj.name

    def test_fill_composes_in_the_scalar_order(self, corpus):
        klein4 = next(o for o in corpus if o.name == "klein4")
        ups, pows = spread_up_factors(klein4)
        elements = product_elements(klein4, ups, pows)
        add, act = factored_tables(klein4, ups, pows)
        assert (add, act) == scalar_pa_tables(elements)[:2]
        m = len(elements)
        assert sum(v >= 0 for row in add for v in row) > m
        assert sum(v >= 0 for row in act for v in row) > m

    def test_no_map_parts_give_empty_tables(self, corpus):
        # the product with no map parts has no elements: no up tables and
        # empty assembled tables, and no map part to find
        klein4 = next(o for o in corpus if o.name == "klein4")
        pows = spread_up_factors(klein4)[1]
        f = _pa_factors(klein4, [], pows)
        assert f.up.shape == (0, 4)
        assert [x.shape for x in _assemble(f)] == [(0, 0), (0, 0)]
        ident = np.arange(4)
        assert f.find_map(ident, ident, ident, ident) == -1
        stack = np.broadcast_to(ident, (2, 3, 4))
        assert f.find_map(stack, stack, stack, stack).tolist() == [[-1] * 3] * 2

    def test_no_map_parts_pass_both_reports(self, corpus):
        # an empty axis leaves every row nothing to scan, so both reports pass
        klein4 = next(o for o in corpus if o.name == "klein4")
        f = _pa_factors(klein4, [], [(0, 0, 0, 0)])
        assert _pa_report(f) == PASSED
        assert _pa_action_report(f) == PASSED


def _factor_bases():
    """Factors to corrupt: genuine ones, including |Maps| = 1 (z1, z2), and
    a non-abelian group of map parts: every additive bijection of klein4
    over the pow tables that vanish at 1, which close under + and under
    every up.  None of them leaves the set."""
    objs = rgwa.standard_corpus()
    by_name = {o.name: o for o in objs}
    bases = [_pa_factors(o, *pentaction_factors(o))
             for o in (by_name["z1"], by_name["z2"], by_name["z3"], by_name["z5"],
                       negation_cyclic(4), k4swap_object(), shear_object())]
    klein4 = by_name["klein4"]
    bases.append(_pa_factors(klein4, spread_up_factors(klein4)[0],
                             [(0, 0, c, c) for c in range(4)]))
    assert all((x >= 0).all() for f in bases for x in _assemble(f))
    return bases


FACTOR_BASES = _factor_bases()


def reference_central_on_map_parts(f):
    """reduced.central over the assembled tables with each sum read by its
    map part only: the least (x, y, z), y != 0, at which x^y + z and
    z + x^y have different map parts.  On genuine factors, where every
    composition of up tables is found, it is the reduced.central row."""
    add, act = _assemble(f)
    z = np.arange(len(add))
    power = act[:, 1:, None]
    hits = np.argwhere(add[power, z] // f.W != add[z, power] // f.W)
    if not len(hits):
        return PASSED
    x, y, z = hits[0].tolist()
    return rgwa.CheckReport((rgwa.Violation("reduced.central", (x, y + 1, z)),))


def reference_central_on_up_tables(f):
    """The reduced.central row by plain loops over the up tables: the least
    (i1, i3) at which up_i3 o up_i1 and up_i1 o up_i3 differ, reported at
    x = (i1, 0), y = 1 and z = (i3, 0)."""
    ups = f.up.tolist()
    for i1, u1 in enumerate(ups):
        for i3, u3 in enumerate(ups):
            if any(u3[u1[a]] != u1[u3[a]] for a in range(len(u1))):
                return rgwa.CheckReport(
                    (rgwa.Violation("reduced.central", (i1 * f.W, 1, i3 * f.W)),))
    return PASSED


def hand_made_ups(ups, W):
    """Factors over Z/3 with the up tables ``ups``, any maps of Z/3, and the
    W <= 3 constant pow tables."""
    return _pa_factors(rgwa.cyclic_trivial(3), ups, [(c,) * 3 for c in range(W)])


def _corrupt_ups(draw, count):
    """Factors with ``count`` cells of the up tables, the tables the
    reduced.central row reads, overwritten by elements of A: a base of
    FACTOR_BASES, or hand-made factors with |Maps| and |W| in 1..3 and
    random up tables.  ``draw(k)`` picks an integer in 0..k-1."""
    if draw(2):
        f = FACTOR_BASES[draw(len(FACTOR_BASES))]
    else:
        M, W = draw(3) + 1, draw(3) + 1
        f = hand_made_ups([[draw(3) for _ in range(3)] for _ in range(M)], W)
    up = f.up.copy()
    for _ in range(count):
        up.flat[draw(up.size)] = draw(up.shape[1])
    return f._replace(up=up, find_up=core._row_finder(up))


def assert_report_is_the_central_scan(f):
    report = _pa_report(f)
    assert report == reference_central_on_up_tables(f)
    return report


class TestPaAxiomScan:
    """On any up tables, the reduced.central row reports exactly what the
    plain-loop reference reports, witness included; it reads no sum."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_factor_tables(self, data):
        def draw(k):
            return data.draw(st.integers(0, k - 1))
        assert_report_is_the_central_scan(_corrupt_ups(draw, draw(4)))

    def test_central_row_in_one_cell_chunks(self, monkeypatch):
        # one leading index per chunk, so witnesses also come from later
        # chunks
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
        rng = random.Random(0)
        passed = 0
        for _ in range(400):
            f = _corrupt_ups(rng.randrange, rng.randrange(4))
            passed += assert_report_is_the_central_scan(f).passed
        assert 0 < passed < 400

    @pytest.mark.parametrize("M, W", [(1, 1), (1, 3), (3, 1), (3, 3)])
    def test_central_witness_at_one_map_or_one_pow(self, M, W):
        # up_0 and up_1 are transpositions of Z/3 that do not commute, so
        # x^y + z and z + x^y have different map parts at x = (0, 0) and
        # z = (1, 0) for every y, but reduced.central excludes y = 0: the
        # witness y is the least nonzero element 1, (0, 1) or (1, 0).  With
        # one map part the row cannot fail
        ups = [(1, 0, 2), (0, 2, 1), (0, 1, 2)][:M]
        report = assert_report_is_the_central_scan(hand_made_ups(ups, W))
        assert [v.witness for v in report.violations] == ([] if M == 1 else [(0, 1, W)])

    def test_genuine_factors_match_the_map_part_reference(self):
        # on genuine factors the sums of the assembled tables compose the up
        # tables, so the row is also reduced.central read off those sums
        reports = []
        for f in FACTOR_BASES:
            reports.append(assert_report_is_the_central_scan(f))
            assert reports[-1] == reference_central_on_map_parts(f)
        assert {r.passed for r in reports} == {True, False}


def pa_of_factors(f):
    """The base, elements and object of a PA over the product of the
    factors' map parts and pow tables, with the assembled tables, as a plain
    namespace: a PAObject must be the enumerated PA(base).  Its elements
    carry only the dotL, up and pow the action reads (dotR and upL repeat
    them), with the identity dots of every pentaction."""
    A = rgwa.FiniteGwaObject("A", len(f.A.ar), tuple(map(tuple, f.A.add.tolist())),
                             tuple(map(tuple, f.A.act.tolist())))
    add, act = _assemble(f)
    B = rgwa.FiniteGwaObject("PA(A)", len(add), tuple(map(tuple, add.tolist())),
                             tuple(map(tuple, act.tolist())))
    i, j = np.divmod(np.arange(len(add)), f.W)
    dot = tuple(range(len(f.A.ar)))
    rows = (map(tuple, x.tolist()) for x in (f.up[i], f.pow[j]))
    elements = tuple(rgwa.Pentaction(A, dot, dot, up, up, pw) for up, pw in zip(*rows))
    return SimpleNamespace(base=A, elements=elements, object=B)


# Carriers for the random factor tables of _corrupt_action_factors.
ACTION_CARRIERS = [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3), negation_cyclic(4),
                   k4swap_object(),
                   rgwa.make_object("s3", 6, *rgwa.s3_conjugation_tables(), require_reduced=False)]


def _corrupt_action_factors(draw, count):
    """``_corrupt_ups`` with its up and pow tables corrupted in ``count``
    in-range cells more, the tables a9 and a10 read; for one draw in two,
    they are first replaced by random tables over a carrier from
    ACTION_CARRIERS.  Sums and powers over such tables may leave the set,
    so the assembled tables may hold -1."""
    f = _corrupt_ups(draw, count)
    A, tables = f.A, {"up": f.up.copy(), "pow": f.pow.copy()}
    if draw(2):
        obj = ACTION_CARRIERS[draw(len(ACTION_CARRIERS))]
        A, n = obj._arrays, obj.order
        tables = {k: np.array([[draw(n) for _ in range(n)] for _ in range(rows)], dtype=np.intp)
                  for k, rows in (("up", len(f.up)), ("pow", f.W))}
    n = len(A.ar)
    for _ in range(count):
        name = ("up", "pow")[draw(2)]
        tables[name].flat[draw(tables[name].size)] = draw(n)
    return f._replace(A=A, find_up=core._row_finder(tables["up"]),
                      find_pow=core._row_finder(tables["pow"]), **tables)


def assert_action_report_is_the_reference(f, chunk_cells=None, monkeypatch=None):
    """The factored report equals the reference scan with B = PA(A)
    restricted to a9 and a10, witnesses included; the factored scan runs at
    ``chunk_cells``."""
    rows = {r[0] for r in _OBSTRUCTIONS[1:]}
    want = reference_pa_action(pa_of_factors(f)).report
    want = rgwa.CheckReport(tuple(v for v in want.violations if v.condition in rows))
    if chunk_cells is None:
        got = _pa_action_report(f)
    else:
        with monkeypatch.context() as patch:
            patch.setattr(core, "_CHUNK_CELLS", chunk_cells)
            got = _pa_action_report(f)
    assert got == want
    return got


# The conditions with two B axes that hold on every product of factors that
# closes: the dot is the identity, and b ^ b2 has the map part of b; and
# those that hold by the definitions of the map and pow lookups.
TWO_B_HOLDING = {"ga.1", "4A", "a2", "a3", "a5"}
TWO_B_BY_DEFINITION = {"2A", "2B", "4B"}


class TestPaActionScan:
    """The factored ``pa_action`` reports exactly what the reference scan
    with B = PA(A) over the m x m tables reports, witnesses included."""

    @pytest.fixture(scope="class")
    def references(self):
        bases = list(rgwa.standard_corpus()) + [
            negation_cyclic(4), k4swap_object(), shear_object(), negation_product(2, 8),
            negation_product(8, 2), negation_cyclic(8), negation_cyclic(16)]
        return [(pa, reference_pa_action(pa)) for pa in map(rgwa.build_pa_object, bases)]

    @pytest.mark.parametrize("chunk_cells", [None, 1], ids=["default-chunks", "one-cell-chunks"])
    def test_real_objects(self, references, chunk_cells, monkeypatch):
        if chunk_cells is not None:
            monkeypatch.setattr(core, "_CHUNK_CELLS", chunk_cells)
        for pa, want in references:
            got = rgwa.pa_action(pa)
            assert got == want, pa.base.name
            assert got.report == want.report, pa.base.name

    def test_factor_rows_are_the_two_b_conditions(self):
        # the rows and the two-B conditions that hold by construction are
        # the two-B conditions, each once; a row's axes are the condition's
        # axes: A is an A axis, and I and J (map parts, pow tables) B axes
        axes = {c[0]: c[1] for c in _CONDITIONS}
        rows = [r[0] for r in _OBSTRUCTIONS[1:]] + sorted(TWO_B_HOLDING | TWO_B_BY_DEFINITION)
        assert sorted(rows) == sorted(cid for cid, ax in axes.items() if ax.count("B") == 2)
        for cid, row_axes, _, _ in _OBSTRUCTIONS[1:]:
            slots = "".join("A" if x == "A" else "B" for x in row_axes)
            assert slots == axes[cid], cid

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_factor_tables(self, data):
        def draw(k):
            return data.draw(st.integers(0, k - 1))
        assert_action_report_is_the_reference(_corrupt_action_factors(draw, draw(4)))

    def test_a9_and_a10_in_one_cell_chunks(self, monkeypatch):
        # one leading index per chunk, so witnesses also come from later
        # chunks
        rng = random.Random(0)
        seen = set()
        for _ in range(300):
            f = _corrupt_action_factors(rng.randrange, rng.randrange(4))
            seen.update(assert_action_report_is_the_reference(f, 1, monkeypatch).conditions())
        assert seen == {"a9", "a10"}

    def test_dot_and_map_part_conditions_hold_on_any_closed_factors(self):
        # The conditions that read only the identity dot, or only the map
        # part of a power, hold on factors that close, whatever their up
        # tables and so their sums: the reference scans of the assembled
        # tables never report them, nor reduced.collapse.  About one draw in
        # four closes, random hand-made up tables among them
        rng = random.Random(0)
        holding = TWO_B_HOLDING | {"ga.2", "ga.3", "3A", "a1"}
        closed = 0
        for _ in range(1000):
            f = _corrupt_ups(rng.randrange, rng.randrange(4))
            add, act = _assemble(f)
            if (add < 0).any() or (act < 0).any():
                continue
            closed += 1
            axioms = rgwa.check_axioms(len(add), add.tolist(), act.tolist(), True)
            assert not holding & set(reference_pa_action(pa_of_factors(f)).report.conditions())
            assert "reduced.collapse" not in axioms.conditions()
        assert closed >= 200

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_b_rows_on_relabeled_bases(self, seed, monkeypatch):
        # the twelve one-B conditions hold on every closed PA(A), so the
        # factored report, in one-cell chunks, is the reference scan of
        # B = PA(A) whole
        for obj in list(rgwa.standard_corpus()) + [
                negation_cyclic(4), k4swap_object(), negation_product(2, 8)]:
            A = relabeled(obj, seed) if seed else obj
            want = reference_pa_action(rgwa.build_pa_object(A)).report
            with monkeypatch.context() as patch:
                patch.setattr(core, "_CHUNK_CELLS", 1)
                assert _pa_action_report(_canonical_factors(A)) == want, A.name


# The benchmark's reduced carriers, a superset of standard_corpus;
# s3_conjugation is not reduced.
PERFBENCH_REDUCED = [name for name in PERFBENCH["CARRIERS"] if name != "s3_conjugation"]
SUB_FACTOR_BASES = ("klein4", "z2xz4", "z8neg", "z16neg", "neg2x8", "shear16")


def closed_sub_factors(obj, seed):
    """The factors of the sub-PA(A) of obj generated by two random map parts
    and one random pow table: the map parts closed under composition, and
    the sums of the pow table's images under them; each factor sorted."""
    ups, pows = pentaction_factors(obj)
    rng = random.Random(seed)

    def closure(start, gens, step):
        found, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for y in (step(x, g) for g in gens):
                if y not in found:
                    found.add(y)
                    frontier.append(y)
        return sorted(found)

    def compose(x, g):
        return tuple(g[v] for v in x)

    def add(x, g):
        return tuple(obj.add[u][v] for u, v in zip(x, g))

    ident, zero = tuple(range(obj.order)), (0,) * obj.order
    maps = closure(ident, rng.sample(ups, min(2, len(ups))), compose)
    pw = rng.choice(pows)
    images = {compose(pw, u) for u in maps}
    return _pa_factors(obj, maps, closure(zero, sorted(images), add))


@lru_cache(maxsize=None)
def genuine_factors(seed):
    """(name, factors) of every closed PA(A) at ``seed``: the benchmark's
    reduced carriers relabeled at that seed, and closed sub-factor sets of
    some of them."""
    cases = []
    for name in PERFBENCH_REDUCED:
        obj = perfbench_object(name, seed)
        cases.append((obj.name, _canonical_factors(obj)))
        if name in SUB_FACTOR_BASES:
            cases.append((f"{obj.name} sub", closed_sub_factors(obj, seed)))
    for name, f in cases:
        assert all((x >= 0).all() for x in _assemble(f)), name
    return cases


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_factors_close(seed, z4neg, shear16):
    # the closure lemma of the rgwa.pa docstring: on a reduced A no sum or
    # power over the canonical factors leaves the set, so the reference
    # tables have no gap, and they are the assembled tables
    checked = []
    for obj in [perfbench_object(name, seed) for name in PERFBENCH_REDUCED] + [z4neg, shear16]:
        ups, pows = pentaction_factors(obj)
        if len(ups) * len(pows) <= 256:
            add, act, gaps = reference_pa_tables(obj, product_elements(obj, ups, pows))
            assert gaps == (), obj.name
            assert factored_tables(obj, ups, pows) == (add.tolist(), act.tolist()), obj.name
            checked.append(obj.name)
    assert len(checked) == len(PERFBENCH_REDUCED)  # all but neg4x4 and neg8x2, and z4neg, shear16


def test_the_shared_factors_invert_every_map_part(shear16):
    # Maps(A) is a group under composition on any validated A, which the
    # family walk relies on for negative steps: inv names each inverse
    s3 = rgwa.make_object("s3", 6, *rgwa.s3_conjugation_tables(), require_reduced=False)
    for obj in [perfbench_object(name, 0) for name in PERFBENCH_REDUCED] + [shear16, s3]:
        f = _canonical_factors(obj)
        assert (f.inv >= 0).all(), obj.name
        # up[inv[i]] o up[i], the map a -> up[inv[i]][up[i][a]], is the identity
        assert (f.up[f.inv[:, None], f.up] == np.arange(obj.order)).all(), obj.name


def test_pa_object_on_a_non_reduced_base_is_refused():
    # the shared factors serve any validated object, PA(A) a reduced one only
    s3 = rgwa.make_object("s3", 6, *rgwa.s3_conjugation_tables(), require_reduced=False)
    with pytest.raises(rgwa.UnsupportedInputError):
        PAObject(s3, PASSED).order


@lru_cache(maxsize=None)
def genuine_references(seed):
    """(name, factors, axiom report, action report) of the closed PA(A) at
    ``seed`` with m <= 256, the reports from ``check_axioms`` and
    ``reference_pa_action`` on the assembled tables."""
    refs = []
    for name, f in genuine_factors(seed):
        if len(f.up) * f.W <= 256:
            add, act = _assemble(f)
            axioms = rgwa.check_axioms(len(add), add, act, require_reduced=True)
            refs.append((name, f, axioms, reference_pa_action(pa_of_factors(f)).report))
    return refs


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestPaOnGenuineFactors:
    """On the factors of a closed PA(A) every law but the three rows holds,
    so the factored reports are the full scans of the assembled tables."""

    def test_reports_are_the_full_scans(self, seed):
        refs = genuine_references(seed)
        assert len(refs) >= len(PERFBENCH_REDUCED)
        for name, f, axioms, action in refs:
            assert _pa_report(f) == axioms, name
            assert _pa_action_report(f) == action, name

    def test_closed_pa_fails_only_the_scanned_rows(self, seed):
        seen = set()
        for name, _, axioms, action in genuine_references(seed):
            assert set(axioms.conditions()) <= {r[0] for r in _OBSTRUCTIONS[:1]}, name
            assert set(action.conditions()) <= {r[0] for r in _OBSTRUCTIONS[1:]}, name
            seen.update(axioms.conditions() + action.conditions())
        assert seen == {"reduced.central", "a9", "a10"}

    def test_closed_pa_is_a_group_with_action(self, seed):
        # so PAObject.object's reduced flag, report.passed, is exactly
        # whether the reduced axioms hold
        sizes = []
        for name, f in genuine_factors(seed):
            m = len(f.up) * f.W
            if m <= 1000:
                add, act = _assemble(f)
                assert rgwa.check_axioms(m, add, act, require_reduced=False).passed, name
                sizes.append(m)
        assert max(sizes) == 512


class TestZeroWeakStabilizerIsPaPassing:
    """The weak stabilizer is the set of values of ``_OBSTRUCTIONS`` over
    the factors, each row 0 exactly where it passes, so A has zero weak
    stabilizer exactly when PA(A) passes its three rows."""

    @staticmethod
    def assert_equivalent(obj):
        pa = rgwa.build_pa_object(obj)
        zero = rgwa.weak_stabilizer(obj).is_zero()
        assert zero == (pa.report.passed and pa.action_report.passed), obj.name
        return zero

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_on_the_benchmark_carriers(self, seed):
        for name in PERFBENCH_REDUCED:
            self.assert_equivalent(perfbench_object(name, seed))

    def test_on_shears_and_z3xz3(self):
        z3 = rgwa.cyclic_trivial(3)
        objs = [shear_object(k) for k in range(2, 7)] + [rgwa.direct_sum(z3, z3)]
        verdicts = [self.assert_equivalent(obj) for obj in objs]
        assert set(verdicts) == {True, False}

    def test_weak_stabilizer_builds_no_composition_table(self, monkeypatch):
        # the rows read the up and pow tables of A's factor record, never
        # the m x m tables of PA(A) that PAObject.object assembles
        z2 = rgwa.cyclic_trivial(2)
        fresh = rgwa.direct_sum(z2, z2, name="klein4-fresh")
        want = reference_weak_stabilizer(fresh)

        def refuse(*args):
            raise AssertionError("built PA(A)'s composition tables")

        monkeypatch.setattr(representability, "_assemble", refuse)
        assert rgwa.weak_stabilizer(fresh) == want
        with pytest.raises(AssertionError, match="built PA"):
            rgwa.build_pa_object(fresh).object


class TestPaAction:
    def test_zero_object_action_passes(self):
        pa = rgwa.build_pa_object(rgwa.cyclic_trivial(1))
        assert rgwa.pa_action(pa).report.passed

    def test_z2_fails_exactly_a9_diagnostically(self):
        pa = rgwa.build_pa_object(rgwa.cyclic_trivial(2))
        action = rgwa.pa_action(pa)
        assert action.report.conditions() == ("a9",)
        assert action.report.violations[0].witness == (1, 1, 1)

    def test_lookup_consistency(self, z4neg):
        for obj in [rgwa.cyclic_trivial(3), z4neg]:
            pa = rgwa.build_pa_object(obj)
            action = rgwa.pa_action(pa)
            for i, p in enumerate(pa.elements):
                assert action.dot[i] == p.dotL
                assert action.pow[i] == p.pow
                assert tuple(action.up[a][i] for a in range(obj.order)) == p.up

    def test_hypothesis_witnesses_pass(self, z4neg, k4swap):
        for obj in (z4neg, k4swap):
            action = rgwa.pa_action(rgwa.build_pa_object(obj))
            assert action.report.passed

    def test_assembled_arrays_are_not_built(self):
        pa = rgwa.build_pa_object(negation_cyclic(8))
        rgwa.pa_action(pa)
        assert "_arrays" not in pa.object.__dict__

    def test_elements_that_are_not_the_enumerated_product_are_refused(self, z4neg):
        # the elements are read off the base: a PAObject takes none, and
        # they cannot be replaced
        pa = rgwa.build_pa_object(rgwa.cyclic_trivial(3))
        first, *rest = pa.elements
        for elements in ((first, *reversed(rest)), pa.elements[:-1],
                         rgwa.build_pa_object(z4neg).elements):
            with pytest.raises(TypeError):
                PAObject(pa.base, elements, pa.object, pa.report)
            with pytest.raises(FrozenInstanceError):
                pa.elements = elements
        copy = PAObject(pa.base, pa.report)
        assert copy.elements == pa.elements == tuple(rgwa.enumerate_pentactions(pa.base))
        assert rgwa.pa_action(copy).report == rgwa.pa_action(pa).report

    def test_negative_component_identities(self, z4neg):
        # the action of the opposite pentaction: (-p).a = a.p, a^(-p) is the
        # prefix component of p, and (-p)^a = -((p^a).p)
        for obj in [rgwa.cyclic_trivial(3), z4neg]:
            pa = rgwa.build_pa_object(obj)
            action = rgwa.pa_action(pa)
            for i, p in enumerate(pa.elements):
                ni = pa.object.neg[i]
                assert action.dot[ni] == p.dotR
                assert tuple(action.up[a][ni] for a in range(obj.order)) == p.upL
                assert action.pow[ni] == tuple(
                    obj.neg[p.dotR[p.pow[a]]] for a in range(obj.order)
                )


class TestRepresent:
    def test_trivially_acting_object_maps_to_the_zero_pentaction(self):
        A, B = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        phi = rgwa.represent(A, B, trivial_triple(A, B))
        assert phi.map == (0, 0, 0)
        assert rgwa.is_morphism(phi).passed

    def test_zero_acting_object(self):
        A = rgwa.cyclic_trivial(2)
        phi = rgwa.represent(A, rgwa.cyclic_trivial(1), trivial_triple(A, rgwa.cyclic_trivial(1)))
        assert phi.map == (0,)

    def test_pa_action_factors_through_the_identity(self, z4neg):
        pa = rgwa.build_pa_object(z4neg)
        action = rgwa.pa_action(pa)
        phi = rgwa.represent(z4neg, pa.object, action, pa=pa)
        assert phi.map == tuple(range(len(pa.elements)))

    def test_triple_over_other_objects_is_refused(self):
        # a derived action of z4 on z2 is not one of z2 on z2, nor of z4 on z3
        z2, z3, z4 = (rgwa.cyclic_trivial(n) for n in (2, 3, 4))
        triple = rgwa.enumerate_derived_actions(z2, z4)[0]
        phi = rgwa.represent(z2, z4, triple)
        for A, B in ((z2, z2), (z3, z4)):
            with pytest.raises(rgwa.InputError, match="is an action of 'z4' on 'z2'"):
                rgwa.represent(A, B, triple)
            with pytest.raises(rgwa.InputError, match="is an action of 'z4' on 'z2'"):
                rgwa.verify_uniqueness(A, B, triple, phi)

    def test_pa_of_another_base_is_refused(self):
        # a derived action of z3 on z2 with PA(z3) in place of PA(z2)
        z2, z3 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        triple = rgwa.enumerate_derived_actions(z2, z3)[0]
        with pytest.raises(rgwa.InputError, match=r"pa is PA\(z3\), not PA\(z2\)"):
            rgwa.represent(z2, z3, triple, pa=rgwa.build_pa_object(z3))

    def test_uniqueness_with_pa_of_another_base_is_refused(self):
        z2, z3 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        triple = rgwa.enumerate_derived_actions(z2, z3)[0]
        phi = rgwa.represent(z2, z3, triple)
        with pytest.raises(rgwa.InputError, match=r"pa is PA\(z3\), not PA\(z2\)"):
            rgwa.verify_uniqueness(z2, z3, triple, phi, pa=rgwa.build_pa_object(z3))

    def test_unverified_triple_is_refused(self):
        z2 = rgwa.cyclic_trivial(2)
        t = trivial_triple(z2, z2)
        bad = DerivedActionTriple(z2, z2, t.dot, t.up, ((0, 0), (0, 1)))
        with pytest.raises(rgwa.InputError):
            rgwa.represent(z2, z2, bad)

    @pytest.mark.parametrize("tables, message", [
        ({"pow": ((0, 0), (0, 0.4))}, "pow[1][1] = 0.4 is not an integer"),
        ({"up": ((0, 0), (1, True))}, "up[1][1] = True is not an integer"),
        ({"pow": ((0, 0), None)}, "pow table row 1 is None, not a list of entries"),
    ], ids=["float", "bool", "none-row"])
    def test_malformed_triples_are_input_errors(self, tables, message):
        # the pow row (0, 0.4) is refused, not truncated to the row (0, 0) of
        # a verified triple and represented by the morphism (0, 0)
        z2 = rgwa.cyclic_trivial(2)
        triple = rgwa.enumerate_derived_actions(z2, z2)[0]
        phi = rgwa.represent(z2, z2, triple)
        for bad in (replace(triple, **tables), replace(triple, report=None, **tables)):
            with pytest.raises(rgwa.InputError, match=f"^{re.escape(message)}$"):
                rgwa.represent(z2, z2, bad)
            with pytest.raises(rgwa.InputError, match=f"^{re.escape(message)}$"):
                rgwa.verify_uniqueness(z2, z2, bad, phi)

    def test_factorization_reproduces_the_three_components(self, z4neg):
        for A in [rgwa.cyclic_trivial(2), z4neg]:
            pa = rgwa.build_pa_object(A)
            for B in [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)]:
                for triple in rgwa.enumerate_derived_actions(A, B):
                    phi = rgwa.represent(A, B, triple, pa=pa)
                    for b in range(B.order):
                        image = pa.elements[phi.map[b]]
                        assert image.dotL == tuple(triple.dot[b])
                        assert image.pow == tuple(triple.pow[b])
                        assert image.up == tuple(triple.up[a][b] for a in range(A.order))

    def test_phi_respects_both_operations_elementwise(self, z4neg):
        for A in [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3), z4neg]:
            pa = rgwa.build_pa_object(A)
            for B in [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)]:
                for triple in rgwa.enumerate_derived_actions(A, B):
                    phi = rgwa.represent(A, B, triple, pa=pa)
                    images = [pa.elements[phi.map[b]] for b in range(B.order)]
                    for b in range(B.order):
                        for b2 in range(B.order):
                            assert (
                                pa.elements[phi.map[B.add[b][b2]]]
                                == rgwa.pent_add(images[b], images[b2])
                            )
                            assert (
                                pa.elements[phi.map[B.act[b][b2]]]
                                == rgwa.pent_pow(images[b], images[b2])
                            )


class TestLookupsAgainstScans:
    """``index_of`` and ``represent`` read the factor finders of PA(A); the
    oracles scan its elements."""

    def test_index_of_is_a_scan_of_the_elements(self, corpus, z4neg, shear16):
        rng = random.Random(2)
        by_name = {o.name: o for o in corpus}
        hits = misses = 0
        for A in (by_name["z3"], by_name["z5"], by_name["klein4"], z4neg, shear16):
            pa, n = rgwa.build_pa_object(A), A.order
            cands = list(pa.elements) + [rgwa.pent_neg(p) for p in pa.elements]
            for p in rng.sample(pa.elements, min(20, len(pa.elements))):
                # one cell changed in range and out of range, and tables of
                # the wrong length, the first with p's concatenated key
                slot, a = rng.choice(("dotL", "dotR", "up", "upL", "pow")), rng.randrange(n)
                for v in (rng.randrange(n), n):
                    table = list(getattr(p, slot))
                    table[a] = v
                    cands.append(replace(p, **{slot: tuple(table)}))
                cands.append(replace(p, dotL=p.dotL + p.dotR[:1], dotR=p.dotR[1:]))
                cands.append(replace(p, pow=p.pow[:-1]))
            for q in cands:
                want = next((i for i, p in enumerate(pa.elements)
                             if p.tables() == q.tables()), -1)
                assert pa.index_of(q) == want, (A.name, q)
                hits, misses = hits + (want >= 0), misses + (want < 0)
        assert hits and misses

    def test_represent_is_the_reference_scan(self, corpus, z4neg, k4swap):
        # enumerated triples, and the same with one pow cell, one up column
        # or the dot row of -1 changed to the negation, so that dot[-1] is
        # not dot[1]^-1; all passed as verified, so that represent looks them up
        by_name = {o.name: o for o in corpus}

        def outcome(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs).map
            except (rgwa.InputError, rgwa.StructuralError) as exc:
                return type(exc), str(exc)

        kinds = set()
        for A in (by_name["z2"], by_name["z5"], by_name["klein4"], z4neg, k4swap):
            pa = rgwa.build_pa_object(A)
            for B in (by_name["z2"], by_name["z3"], by_name["klein4"]):
                for triple in rgwa.enumerate_derived_actions(A, B):
                    pw = [list(row) for row in triple.pow]
                    pw[-1][-1] = (pw[-1][-1] + 1) % A.order
                    up = [row[:1] + row[1:][::-1] for row in triple.up]
                    dot = list(triple.dot)
                    dot[B.neg[1]] = tuple(A.neg)
                    for t in (triple, replace(triple, pow=tuple(map(tuple, pw))),
                              replace(triple, up=tuple(map(tuple, up))),
                              replace(triple, dot=tuple(dot))):
                        got = outcome(rgwa.represent, A, B, t, pa=pa)
                        assert got == outcome(reference_represent, A, B, t, pa), (A.name, B.name)
                        kinds.add(got[0] if isinstance(got[0], type) else "phi")
        assert kinds == {"phi", rgwa.StructuralError}


class TestUniqueness:
    def test_zero_acting_object_is_trivially_unique(self):
        A, B = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(1)
        triple = trivial_triple(A, B)
        phi = rgwa.represent(A, B, triple)
        assert rgwa.verify_uniqueness(A, B, triple, phi).passed

    def test_uniqueness_over_enumerated_actions(self):
        A, B = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        pa = rgwa.build_pa_object(A)
        for triple in rgwa.enumerate_derived_actions(A, B):
            phi = rgwa.represent(A, B, triple, pa=pa)
            assert rgwa.verify_uniqueness(A, B, triple, phi, pa=pa).passed

    def test_corrupted_phi_fails_the_filter(self):
        A, B = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        pa = rgwa.build_pa_object(A)
        triple = trivial_triple(A, B)
        phi = rgwa.represent(A, B, triple, pa=pa)
        corrupted = rgwa.GwaMorphism(B, pa.object, (phi.map[0], 1 - phi.map[1], phi.map[2]))
        report = rgwa.verify_uniqueness(A, B, triple, corrupted, pa=pa)
        assert "uniq.phi" in report.conditions()

    def test_malformed_triple_is_an_input_error(self):
        A, B = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        triple = trivial_triple(A, B)
        phi = rgwa.represent(A, B, triple)
        for bad in (replace(triple, dot=triple.dot[:-1]),
                    replace(triple, up=((0, 0, 0), (1, 1))),
                    replace(triple, pow=((0, 0, 0),) * 3),
                    replace(triple, pow=((0, 2),) * 3)):
            with pytest.raises(rgwa.InputError):
                rgwa.verify_uniqueness(A, B, bad, phi)
            with pytest.raises(rgwa.InputError):  # even when it carries a passing report
                rgwa.represent(A, B, replace(bad, report=PASSED))

    def test_budget(self):
        A, B = rgwa.cyclic_trivial(3), rgwa.cyclic_trivial(3)
        pa = rgwa.build_pa_object(A)
        triple = trivial_triple(A, B)
        phi = rgwa.represent(A, B, triple, pa=pa)
        cost = B.order  # one factor lookup per b
        with pytest.raises(rgwa.BudgetExceededError):
            rgwa.verify_uniqueness(A, B, triple, phi, pa=pa, budget=cost - 1)
        assert rgwa.verify_uniqueness(A, B, triple, phi, pa=pa, budget=cost).passed

    def test_budget_is_charged_before_pa_is_built(self, monkeypatch):
        A, B = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(1)
        triple = trivial_triple(A, B)
        phi = rgwa.represent(A, B, triple)

        def unreachable(*args, **kwargs):
            raise AssertionError("PA(A) was built before the uniqueness charge")

        monkeypatch.setattr(representability, "build_pa_object", unreachable)
        with pytest.raises(rgwa.BudgetExceededError) as err:
            rgwa.verify_uniqueness(A, B, triple, phi, pa=None, budget=0)
        assert str(err.value) == "uniqueness lookup for 1 columns needs 1 lookups, budget is 0"


# The oracle visits m^|B| maps per phi; pairs above this many are left out
# (PA(z7) and PA(klein4) at |B| = 3).
_ORACLE_MAPS = 40_000


def uniqueness_phis(B, pa, triple, rng):
    """phi from ``represent`` when it exists, each one-position corruption of
    it, and two random maps."""
    m = len(pa.elements)
    phis = []
    try:
        phis.append(rgwa.represent(pa.base, B, triple, pa=pa).map)
    except rgwa.StructuralError:
        pass
    for phi in list(phis):
        phis += [phi[:b] + ((phi[b] + 1) % m,) + phi[b + 1:] for b in range(B.order)]
    phis += [tuple(rng.randrange(m) for _ in range(B.order)) for _ in range(2)]
    return phis


class TestUniquenessAgainstOracle:
    def test_reports_match_the_exhaustive_search(self, corpus, z4neg, k4swap, shear16):
        rng = random.Random(0)
        bases = [o for o in corpus if o.order <= 8] + [z4neg, k4swap, shear16]
        acting = [o for o in corpus if o.order <= 3]
        seen = set()
        for A in bases:
            if len(rgwa.enumerate_pentactions(A)) > 96:
                continue  # PA(z2xz4), m = 256: only B = z1 is under the cap
            pa = rgwa.build_pa_object(A)
            for B in acting:
                if len(pa.elements) ** B.order > _ORACLE_MAPS:
                    continue
                for triple in rgwa.enumerate_derived_actions(A, B):
                    for phi_map in uniqueness_phis(B, pa, triple, rng):
                        phi = rgwa.GwaMorphism(B, pa.object, phi_map)
                        got = rgwa.verify_uniqueness(A, B, triple, phi, pa=pa)
                        want = reference_verify_uniqueness(A, B, triple, phi, pa)
                        assert got.to_json() == want.to_json(), (A.name, B.name, phi_map)
                        seen.add(got.conditions())
        assert seen == {(), ("uniq.phi", "uniq.extra")}

    def test_corrupted_triples_match_the_exhaustive_search(self, z4neg):
        # one cell of dot[b], of the up column b or of pow[b] changed, per
        # (b, a): the lookup and the exhaustive search agree that no map
        # reproduces the changed triple
        B = rgwa.cyclic_trivial(2)
        pa = rgwa.build_pa_object(z4neg)
        seen = set()
        for triple in rgwa.enumerate_derived_actions(z4neg, B):
            phi = rgwa.represent(z4neg, B, triple, pa=pa)
            for b, a, key in product(range(B.order), range(z4neg.order), ("dot", "up", "pow")):
                table = [list(row) for row in getattr(triple, key)]
                row, col = (a, b) if key == "up" else (b, a)
                table[row][col] = (table[row][col] + 1) % z4neg.order
                bad = replace(triple, **{key: tuple(map(tuple, table))}, report=None)
                got = rgwa.verify_uniqueness(z4neg, B, bad, phi, pa=pa)
                want = reference_verify_uniqueness(z4neg, B, bad, phi, pa)
                assert got.to_json() == want.to_json(), (key, b, a)
                seen.add((key, got.conditions()))
        assert seen == {(key, ("uniq.phi",)) for key in ("dot", "up", "pow")}

    def test_duplicate_action_columns_are_refused(self, corpus, z4neg):
        # Copies of elements that differ only in dotR would give the per-b
        # match sets a second member; no PAObject can hold them.
        by_name = {o.name: o for o in corpus}
        for A in (by_name["z3"], z4neg, by_name["z4"]):
            pa = rgwa.build_pa_object(A)
            for p in (pa.elements[0], pa.elements[-1]):
                copy = replace(p, dotR=(1,) * A.order)
                for elements in (pa.elements + (copy,), (copy,) + pa.elements[1:]):
                    with pytest.raises(TypeError):
                        PAObject(A, elements, None, pa.report)
            assert copy not in PAObject(A, pa.report).elements


class TestVerifyRepresentability:
    def test_zero_object_passes_fully(self):
        report = rgwa.verify_representability(rgwa.cyclic_trivial(1), max_b_order=3)
        assert report.all_passed
        assert report.pairs_checked == 3  # one forced action for each of z1..z3

    def test_nonzero_witnesses_pass_fully(self, z4neg, k4swap):
        for obj in (z4neg, k4swap):
            report = rgwa.verify_representability(obj, max_b_order=3)
            assert report.all_passed, report.failures
            assert report.pairs_checked > 0

    def test_shear_carrier_passes_fully(self, shear16):
        report = rgwa.verify_representability(shear16, max_b_order=2)
        assert report.all_passed, report.failures
        assert report.pa_order == 16
        assert report.pairs_checked == 5

    def test_z2_documents_the_broken_step_instead_of_crashing(self):
        report = rgwa.verify_representability(rgwa.cyclic_trivial(2), max_b_order=3)
        assert not report.all_passed
        stages = {f["stage"] for f in report.failures}
        assert stages == {"pa_action"}
        failure = report.failures[0]
        assert failure["conditions"] == ["a9"]
        # the per-pair factorization itself still goes through
        assert report.pairs_checked == 3

    def test_json_shape(self):
        report = rgwa.verify_representability(rgwa.cyclic_trivial(1), max_b_order=2)
        data = report.to_json()
        assert set(data) == {"pa_order", "pa_rgwa", "pa_action", "representability"}
        assert set(data["representability"]) == {"pairs_checked", "all_passed", "failures"}

    def test_budget_error_carries_context(self):
        # the |B| = 4 uniqueness lookups of B = z4 are over budget 3, and
        # every derived-action enumeration on z2 is charged 3: one candidate,
        # the one entry of the 2A table and that of the 4B and a10 tables
        with pytest.raises(rgwa.BudgetExceededError) as exc:
            rgwa.verify_representability(rgwa.cyclic_trivial(2), max_b_order=4, budget=3)
        assert "representability check for 'z2', B='z4'" in str(exc.value)


def _bases():
    corpus = {o.name: o for o in rgwa.standard_corpus()}
    return {**corpus, "z8neg": negation_cyclic(8), "z4neg": negation_cyclic(4),
            "k4swap": k4swap_object(), "shear16": shear_object()}


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except rgwa.BudgetExceededError as exc:
        return str(exc)


class TestBatchAgainstPerTriple:
    """``verify_representability`` checks each B's derived actions as one
    batch; its report is the one of the per-triple loop."""

    @pytest.mark.parametrize("name,max_b_order", [
        ("z5", 4),  # pa_action fails; every triple still factors
        ("z8neg", 4), ("z4neg", 4), ("k4swap", 4), ("shear16", 4),
        ("klein4", 4), ("z2xz4", 3),  # PA not reduced: one represent message per B
    ])
    def test_reports_match_the_per_triple_loop(self, name, max_b_order):
        A = _bases()[name]
        report = rgwa.verify_representability(A, max_b_order=max_b_order)
        assert report == reference_verify_representability(A, max_b_order=max_b_order)
        assert report.pairs_checked > 0

    def test_unreduced_pa_is_reported_once_per_acting_object(self, corpus):
        # z2xz4: PA(A) fails reduced.central, so every derived action fails
        # represent with the same message, reported once per B that has one
        A = _bases()["z2xz4"]
        acting = [B for B in corpus if B.order <= 4]
        report = rgwa.verify_representability(A, max_b_order=4)
        message = "PA(z2xz4) is not a verified reduced object; failing: reduced.central"
        counts = {B.name: len(rgwa.enumerate_derived_actions(A, B)) for B in acting}
        assert [f["stage"] for f in report.failures[:2]] == ["pa_rgwa", "pa_action"]
        assert list(report.failures[2:]) == [
            {"stage": "represent", "B": name, "triple": None, "conditions": [message]}
            for name, count in counts.items() if count]
        assert report.pairs_checked == sum(counts.values()) == 558

    def test_enumerated_pa_keys_are_distinct(self):
        # the batch takes each M_b of verify_uniqueness to be {phi(b)}
        for A in _bases().values():
            pa = rgwa.build_pa_object(A)
            keys = {(p.dotL, p.up, p.pow) for p in pa.elements}
            assert len(keys) == len(pa.elements), A.name

    def test_budget_refusals_match(self, corpus):
        # the uniqueness charge is the |B| <= 4 lookups: below every budget
        # at which the enumeration charges pass on z5, and above them on z1,
        # where B = z3 and z4 are refused at budgets 2 and 3
        z1, z5, acting = corpus[0], corpus[4], corpus[:4]
        kinds = set()
        for A, budget in product((z5, z1), range(1, 30)):
            got = _outcome(rgwa.verify_representability, A, 4, budget, acting)
            assert got == _outcome(reference_verify_representability, A, 4, budget, acting)
            kinds.add(("uniqueness lookup" in got, A.name) if isinstance(got, str) else "report")
        assert kinds == {(False, "z5"), (False, "z1"), (True, "z1"), "report"}

    def test_a_verified_pa_leaves_the_per_triple_loop_nothing_to_report(self):
        # the lemma of the representability docstring: on a verified PA(A),
        # every enumerated triple has its images, both morphism laws and
        # uniqueness, so the batch check reports none of them
        bases = [perfbench_object(name, seed) for name in PERFBENCH_REDUCED for seed in range(3)]
        verified = 0
        for A in bases + [shear_object(5)]:
            report = reference_verify_representability(A, max_b_order=4)
            if report.pa_rgwa.passed:
                verified += report.pairs_checked
                stages = {f["stage"] for f in report.failures}
                assert not stages & {"represent", "morphism", "uniqueness"}, A.name
            assert rgwa.verify_representability(A, max_b_order=4) == report, A.name
        assert verified > 1000
