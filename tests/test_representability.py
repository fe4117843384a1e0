"""PA(A) assembly, its action, and the factorization morphism."""

import json
import random
from dataclasses import FrozenInstanceError, replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rgwa
from conftest import (
    k4swap_object,
    negation_cyclic,
    negation_product,
    reference_build_pa_object,
    reference_pa_action,
    reference_pa_tables,
    reference_represent,
    reference_triple_failures,
    reference_verify_representability,
    reference_verify_uniqueness,
    relabeled,
    shear_object,
)
from rgwa import core, representability
from rgwa.cli import main
from rgwa.core import _AXIOMS, invert_map
from rgwa.extensions import _CONDITIONS, DerivedActionTriple
from rgwa.pentactions import _pentaction_factors
from rgwa.report import PASSED
from rgwa.pa import (
    _PA_ACTION,
    _PaFactors,
    _assemble,
    _canonical_factors,
    _closure_gaps,
    _pa_action_report,
    _pa_factors,
    _pa_report,
)
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

    def test_factors_that_do_not_close_leave_no_object(self, monkeypatch, capsys, tmp_path):
        # the product without its first map part (the identity maps) is not
        # closed; PA(A) then reports the closure gaps of the reference tables
        z7 = rgwa.cyclic_trivial(7)
        ups, pows = _pentaction_factors(z7)
        elements = product_elements(z7, ups[1:], pows)
        gaps = reference_pa_tables(z7, elements)[2]
        assert gaps
        truncated = _pa_factors(z7, ups[1:], pows)
        monkeypatch.setattr(representability, "_canonical_factors", lambda obj: truncated)
        pa = rgwa.build_pa_object(z7)
        assert pa.report == rgwa.CheckReport(gaps)
        assert (pa.closed, pa.object, pa.action_report) == (False, None, None)
        with pytest.raises(rgwa.StructuralError, match="did not close"):
            rgwa.pa_action(pa)
        report = rgwa.verify_representability(z7)
        assert (report.pa_action, report.pairs_checked) == (None, 0)
        assert [f["stage"] for f in report.failures] == ["pa_rgwa"]
        path = tmp_path / "z7.json"
        rgwa.save_object(z7, path)
        assert main(["pa", str(path)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "pa_order": len(elements), "pa_rgwa": pa.report.to_json(), "pa_action": None}


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


def factored_tables(obj, ups, pows):
    """The assembled tables of the product ups x pows, and its closure gaps
    read off the factors."""
    f = _pa_factors(obj, ups, pows)
    add, act = _assemble(f)
    return add.tolist(), act.tolist(), _closure_gaps(f)


def spread_up_factors(klein4):
    """Up tables spread over the non-abelian automorphism group of klein4,
    so that Cm depends on the order of composition."""
    return rgwa.additive_bijections(klein4), [(0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1)]


class TestPaFill:
    def test_array_fill_matches_scalar_operations(self, corpus, z4neg, shear16):
        objs = [o for o in corpus if len(rgwa.enumerate_pentactions(o)) <= 96]
        assert len(objs) == len(corpus) - 1  # all but z2xz4 (m = 256)
        for obj in objs + [z4neg, shear16]:
            elements = rgwa.enumerate_pentactions(obj)
            got = factored_tables(obj, *_pentaction_factors(obj))
            assert got == scalar_pa_tables(elements), obj.name
            assert got[2] == ()

    def test_truncated_element_lists_report_the_scalar_gaps(self, corpus, z4neg, shear16):
        # drop one map part or one pow table from the factors; the elements
        # are the product of what is left
        by_name = {o.name: o for o in corpus}
        seen = set()
        for obj in (by_name["z3"], by_name["z7"], z4neg, shear16):
            ups, pows = _pentaction_factors(obj)
            variants = [(ups[:k] + ups[k + 1:], pows) for k in {0, 1, len(ups) // 2, len(ups) - 1}]
            variants += [(ups, pows[:k] + pows[k + 1:]) for k in {0, 1, len(pows) // 2, len(pows) - 1}]
            for sub_ups, sub_pows in variants:
                elements = product_elements(obj, sub_ups, sub_pows)
                got = factored_tables(obj, sub_ups, sub_pows)
                add, act, gaps = reference_pa_tables(obj, elements)
                assert got == (add.tolist(), act.tolist(), gaps) == scalar_pa_tables(elements)
                seen.update(v.condition for v in gaps)
        assert seen == {"pa.closure.add", "pa.closure.act"}

    def test_fill_composes_in_the_scalar_order(self, corpus):
        klein4 = next(o for o in corpus if o.name == "klein4")
        ups, pows = spread_up_factors(klein4)
        elements = product_elements(klein4, ups, pows)
        add, act, gaps = factored_tables(klein4, ups, pows)
        assert (add, act, gaps) == scalar_pa_tables(elements)
        m = len(elements)
        assert sum(v >= 0 for row in add for v in row) > m
        assert sum(v >= 0 for row in act for v in row) > m

    def test_no_map_parts_give_empty_tables(self, corpus):
        # the product with no map parts has no elements: empty factor and
        # assembled tables, no closure gap, and no map part to find
        klein4 = next(o for o in corpus if o.name == "klein4")
        pows = spread_up_factors(klein4)[1]
        f = _pa_factors(klein4, [], pows)
        assert (f.Cm.shape, f.P.shape, f.Q.shape) == ((0, 0), (3, 3), (0, 3))
        assert [x.shape for x in _assemble(f)] == [(0, 0), (0, 0)]
        assert _closure_gaps(f) == ()
        ident = np.arange(4)
        assert f.find_map(ident, ident, ident, ident) == -1
        stack = np.broadcast_to(ident, (2, 3, 4))
        assert f.find_map(stack, stack, stack, stack).tolist() == [[-1] * 3] * 2


def _factor_bases():
    """Factor tables to corrupt: genuine ones, including |Maps| = 1 (z1, z2)
    and a non-abelian Cm (spread klein4 ups, gaps filled with 0)."""
    objs = rgwa.standard_corpus()
    by_name = {o.name: o for o in objs}
    bases = [_pa_factors(o, *_pentaction_factors(o))
             for o in (by_name["z1"], by_name["z2"], by_name["z3"], by_name["z5"],
                       negation_cyclic(4), k4swap_object(), shear_object())]
    ups, pows = spread_up_factors(by_name["klein4"])
    spread = _pa_factors(by_name["klein4"], ups, pows[:2])
    return bases + [spread._replace(**{k: np.maximum(getattr(spread, k), 0)
                                       for k in ("Cm", "P", "Q")})]


FACTOR_BASES = _factor_bases()


def _corrupt_factors(draw, count):
    """Factor tables with ``count`` in-range cells overwritten: a genuine
    base, or random tables with |Maps| and |W| in 1..3.  ``draw(k)`` picks
    an integer in 0..k-1."""
    if draw(2):
        f = FACTOR_BASES[draw(len(FACTOR_BASES))]
    else:
        M, W = draw(3) + 1, draw(3) + 1
        shapes = {"Cm": (M, M), "P": (W, W), "Q": (M, W)}
        bounds = {"Cm": M, "P": W, "Q": W}
        f = _PaFactors(**{k: np.array([draw(bounds[k]) for _ in range(int(np.prod(shape)))],
                                      dtype=np.intp).reshape(shape)
                          for k, shape in shapes.items()}, W=W)
    tables = {k: getattr(f, k).copy() for k in ("Cm", "P", "Q")}
    bounds = {"Cm": len(f.Cm), "P": f.W, "Q": f.W}
    for _ in range(count):
        name = ("Cm", "P", "Q")[draw(3)]
        tables[name].flat[draw(tables[name].size)] = draw(bounds[name])
    return f._replace(**tables)


def assert_report_is_the_axiom_scan(f):
    add, act = _assemble(f)
    report = _pa_report(f)
    assert report == rgwa.check_axioms(len(add), add.tolist(), act.tolist(), True)
    return report


class TestPaAxiomScan:
    """The factored scan reports exactly what ``check_axioms`` reports on the
    assembled tables, witnesses included."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_factor_tables(self, data):
        def draw(k):
            return data.draw(st.integers(0, k - 1))
        assert_report_is_the_axiom_scan(_corrupt_factors(draw, draw(4)))

    def test_every_axiom_in_one_cell_chunks(self, monkeypatch):
        # one leading index per chunk, so witnesses also come from later
        # chunks; reduced.collapse holds whatever the factors, since a power
        # keeps the map part of its first argument
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
        rng = random.Random(0)
        seen = set()
        for _ in range(400):
            f = _corrupt_factors(rng.randrange, rng.randrange(4))
            seen.update(assert_report_is_the_axiom_scan(f).conditions())
        assert seen == {a[0] for a in _AXIOMS} - {"reduced.collapse"}

    def test_element_axioms_at_single_cell_corruptions(self):
        # group.identity, group.inverse and action.zero read each factor
        # table per element; genuine tables with one cell overwritten, a
        # zero cell of Cm or P made nonzero and a nonzero one made zero
        rng = random.Random(1)
        seen = set()
        for f in FACTOR_BASES:
            if len(f.Cm) * f.W > 64:
                continue
            for name, bound in (("Cm", len(f.Cm)), ("P", f.W), ("Q", f.W)):
                size = getattr(f, name).size
                for cell in range(size) if size <= 64 else rng.sample(range(size), 64):
                    table = getattr(f, name).copy()
                    old = table.flat[cell]
                    table.flat[cell] = (old == 0) if name in ("Cm", "P") else rng.randrange(bound)
                    if table.flat[cell] < bound and table.flat[cell] != old:
                        report = assert_report_is_the_axiom_scan(f._replace(**{name: table}))
                        seen.update(report.conditions())
        assert {"group.identity", "group.inverse", "action.zero"} <= seen

    @pytest.mark.parametrize("M, W", [(1, 1), (1, 3), (3, 1)])
    def test_central_witness_at_one_map_or_one_pow(self, M, W):
        # x^y + z and z + x^y differ at z = 1 for every x and y, but
        # reduced.central excludes y = 0: the witness y is the least nonzero
        # element, (0, 1) or (1, 0), and PA(z1) has none
        f = _PaFactors(Cm=np.zeros((M, M), dtype=np.intp), P=np.zeros((W, W), dtype=np.intp),
                       Q=np.zeros((M, W), dtype=np.intp), W=W)
        f.Cm[0, 1 % M] = 1 % M
        f.P[0, 1 % W] = 1 % W
        report = assert_report_is_the_axiom_scan(f)
        central = [v.witness for v in report.violations if v.condition == "reduced.central"]
        assert central == ([] if M * W == 1 else [(0, 1, 1)])


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


# Carriers for the random factor tables of _corrupt_action_factors; s3 (not
# reduced) is the one that is not abelian, so only there can a6 fail.
ACTION_CARRIERS = [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3), negation_cyclic(4),
                   k4swap_object(),
                   rgwa.make_object("s3", 6, *rgwa.s3_conjugation_tables(), require_reduced=False)]


def _corrupt_action_factors(draw, count):
    """``_corrupt_factors`` with its up and pow arrays corrupted in
    ``count`` in-range cells too.  Random factor tables get a carrier from
    ACTION_CARRIERS and random arrays."""
    f = _corrupt_factors(draw, count)
    if f.A is None:
        A = ACTION_CARRIERS[draw(len(ACTION_CARRIERS))]
        n = A.order

        def random_table(rows):
            return np.array([[draw(n) for _ in range(n)] for _ in range(rows)], dtype=np.intp)

        f = f._replace(up=random_table(len(f.Cm)), pow=random_table(f.W), A=A._arrays)
    n = len(f.A.ar)
    tables = {k: getattr(f, k).copy() for k in ("up", "pow")}
    for _ in range(count):
        name = ("up", "pow")[draw(2)]
        tables[name].flat[draw(tables[name].size)] = draw(n)
    return f._replace(**tables)


def assert_action_report_is_the_reference(f, chunk_cells=None, monkeypatch=None):
    """The factored report equals the reference scan with B = PA(A),
    witnesses included; the factored scan runs at ``chunk_cells``."""
    want = reference_pa_action(pa_of_factors(f)).report
    if chunk_cells is None:
        got = _pa_action_report(f)
    else:
        with monkeypatch.context() as patch:
            patch.setattr(core, "_CHUNK_CELLS", chunk_cells)
            got = _pa_action_report(f)
    assert got == want
    return got


# The conditions with two B axes that hold on every product of factors: the
# dot is the identity, and b ^ b2 has the map part of b.
TWO_B_HOLDING = {"ga.1", "4A", "a2", "a3", "a5"}


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
        # the rows and the five two-B conditions that hold by construction
        # are the two-B conditions, each once; a row's slots are the
        # condition's axes: ak names an A slot, and every other slot is a B slot
        axes = {c[0]: c[1] for c in _CONDITIONS}
        rows = [r[0] for r in _PA_ACTION] + sorted(TWO_B_HOLDING)
        assert sorted(rows) == sorted(cid for cid, ax in axes.items() if ax.count("B") == 2)
        for cid, names, _ in _PA_ACTION:
            slots = "".join("A" if f"a{k}" in names.split() else "B" for k in "123")
            assert slots == axes[cid], cid

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_factor_tables(self, data):
        def draw(k):
            return data.draw(st.integers(0, k - 1))
        assert_action_report_is_the_reference(_corrupt_action_factors(draw, draw(4)))

    def test_every_condition_in_one_cell_chunks(self, monkeypatch):
        # one leading index per chunk, so witnesses also come from later
        # chunks.  The conditions that read only the identity dot, or only
        # the map part of a power, hold: the reference scans of the
        # assembled tables never report them, nor reduced.collapse
        rng = random.Random(0)
        holding = TWO_B_HOLDING | {"ga.2", "ga.3", "3A", "a1"}
        seen = set()
        for _ in range(300):
            f = _corrupt_action_factors(rng.randrange, rng.randrange(4))
            report = assert_action_report_is_the_reference(f, 1, monkeypatch)
            add, act = _assemble(f)
            axioms = rgwa.check_axioms(len(add), add.tolist(), act.tolist(), True)
            assert not holding & set(report.conditions())
            assert "reduced.collapse" not in axioms.conditions()
            seen.update(report.conditions())
        assert seen == {c[0] for c in _CONDITIONS} - holding

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_b_rows_on_relabeled_bases(self, seed, monkeypatch):
        # the twelve one-B conditions scan the map parts or the pow tables
        # in one-cell chunks; the reference scans B = PA(A) whole
        for obj in list(rgwa.standard_corpus()) + [
                negation_cyclic(4), k4swap_object(), negation_product(2, 8)]:
            A = relabeled(obj, seed) if seed else obj
            want = reference_pa_action(rgwa.build_pa_object(A)).report
            with monkeypatch.context() as patch:
                patch.setattr(core, "_CHUNK_CELLS", 1)
                assert _pa_action_report(_canonical_factors(A)) == want, A.name


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
        # the |B| = 3 uniqueness lookups of B = z3 are over budget 2
        with pytest.raises(rgwa.BudgetExceededError) as exc:
            rgwa.verify_representability(rgwa.cyclic_trivial(2), max_b_order=3, budget=2)
        assert "representability check for 'z2', B='z3'" in str(exc.value)


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

    def test_corrupted_batches_report_as_the_per_triple_loop(self, z4neg):
        # pow rows replaced by other rows of W' keep each image in PA(A) but
        # break the laws; up columns moved off their map parts leave PA(A)
        from rgwa.extensions import DEFAULT_BUDGET, _derived_action_batch

        rng = np.random.default_rng(0)
        pa = rgwa.build_pa_object(z4neg)
        stages = set()
        for B in (_bases()["klein4"], _bases()["z4"], k4swap_object()):
            batch = _derived_action_batch(z4neg, B, DEFAULT_BUDGET)
            J = batch.J.copy()
            J[:, 1:] = rng.integers(0, len(batch.rows), (len(J), B.order - 1))
            ups = batch.ups.copy()
            ups[::2, :, 1] = rng.permuted(ups[::2, :, 1], axis=1)
            bad = batch._replace(ups=ups, J=J)
            dot = (tuple(range(z4neg.order)),) * B.order
            triples = [
                DerivedActionTriple(z4neg, B, dot, *(tuple(map(tuple, x)) for x in tables),
                                    report=PASSED)
                for tables in zip(bad.ups[bad.pair].tolist(), bad.rows[bad.J].tolist())
            ]
            got = representability._batch_failures(z4neg, B, bad, pa, DEFAULT_BUDGET)
            assert got == reference_triple_failures(z4neg, B, triples, pa), B.name
            stages.update(f["stage"] for f in got)
        assert stages == {"represent", "morphism"}
