"""Axiom gate, morphisms, closures and quotients."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rgwa
from conftest import (
    negation_cyclic,
    reference_check_axioms,
    reference_is_morphism,
    reference_neg,
    shear_object,
)
from rgwa import core
from rgwa.core import _generator_walk, additive_closure, generating_words


def cyclic_tables(n):
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    act = [[x for _ in range(n)] for x in range(n)]
    return add, act


class TestCheckAxioms:
    def test_zero_object_passes(self):
        report = rgwa.check_axioms(1, [[0]], [[0]], require_reduced=True)
        assert report.passed

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_trivial_passes_reduced(self, n):
        add, act = cyclic_tables(n)
        assert rgwa.check_axioms(n, add, act, require_reduced=True).passed

    def test_s3_conjugation_fails_exactly_the_reduced_checks(self):
        add, act = rgwa.s3_conjugation_tables()
        gwa_only = rgwa.check_axioms(6, add, act, require_reduced=False)
        assert gwa_only.passed
        report = rgwa.check_axioms(6, add, act, require_reduced=True)
        assert set(report.conditions()) == {"reduced.central", "reduced.collapse"}

    def test_s3_witnesses_are_genuine_and_minimal(self):
        add, act = rgwa.s3_conjugation_tables()
        report = rgwa.check_axioms(6, add, act, require_reduced=True)
        by_id = {v.condition: v.witness for v in report.violations}
        x, y, z = by_id["reduced.central"]
        assert add[act[x][y]][z] != add[z][act[x][y]] and y != 0
        # nothing lexicographically smaller violates centrality
        for wx in range(x + 1):
            for wy in range(6):
                for wz in range(6):
                    if (wx, wy, wz) >= (x, y, z):
                        break
                    if wy != 0:
                        assert add[act[wx][wy]][wz] == add[wz][act[wx][wy]]
        x, y, z = by_id["reduced.collapse"]
        assert act[x][act[y][z]] != act[x][y]

    def test_broken_associativity_is_reported(self):
        add = [[0, 1], [1, 1]]  # 1+1 = 1 wrecks inverses/associativity
        act = [[0, 0], [1, 1]]
        report = rgwa.check_axioms(2, add, act)
        assert not report.passed
        assert "group.inverse" in report.conditions()

    def test_dimension_mismatch_is_an_input_error(self):
        with pytest.raises(rgwa.InputError):
            rgwa.check_axioms(3, [[0, 1], [1, 0]], [[0] * 3] * 3)

    def test_out_of_range_entry_is_an_input_error(self):
        add, act = cyclic_tables(3)
        act[0][0] = 7
        with pytest.raises(rgwa.InputError):
            rgwa.check_axioms(3, add, act)

    def test_nonpositive_order_is_an_input_error(self):
        with pytest.raises(rgwa.InputError):
            rgwa.check_axioms(0, [], [])

    def test_non_integer_entries_are_input_errors(self):
        with pytest.raises(rgwa.InputError):
            rgwa.check_axioms(2, [[0, 1], [1, 0.5]], [[0, 0], [1, 1]])
        with pytest.raises(rgwa.InputError):
            rgwa.check_axioms(2, [[0, "1"], [1, 0]], [[0, 0], [1, 1]])

    def test_bool_entries_are_input_errors(self):
        with pytest.raises(rgwa.InputError):
            core.as_index(True)
        with pytest.raises(rgwa.InputError):
            rgwa.check_axioms(2, [[False, True], [True, False]], [[0, 0], [1, 1]])

    @pytest.mark.parametrize("table", [
        [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        [[0, 1, 2], [1, 2, 0]],
        [[0, 1, 2], [1, 2], [2, 0, 1]],
        [[0, 1, 2], [1, 3, 0], [2, 0]],
        [[0, 1, 2], [1, 2, -1], [2, 0, 1]],
        [[0, 1, 2], [1, 2, 0.0], [2, 0, 7]],
        [[0, 1, 2], [1, True, 0], [2, 0, 1]],
        [[0, 1, 2], [np.int64(1), 2, np.int8(0)], [2, 0, 1]],
        [[0, 1, 2], [np.int64(1), 2, np.int8(5)], [2, 0, 1]],
        [(0, 1, 2), range(3), "abc"],
    ])
    def test_table_check_matches_the_per_entry_loop(self, table):
        # the fast path for plain int tables accepts and refuses exactly what
        # the per-entry loop does, with the same message
        def per_entry(order, table, what):
            rows = tuple(tuple(core.as_index(v) for v in row) for row in table)
            if len(rows) != order:
                raise rgwa.InputError(f"{what} table has {len(rows)} rows, expected {order}")
            for x, row in enumerate(rows):
                if len(row) != order:
                    raise rgwa.InputError(
                        f"{what} table row {x} has {len(row)} entries, expected {order}")
                for y, v in enumerate(row):
                    if not 0 <= v < order:
                        raise rgwa.InputError(
                            f"{what}[{x}][{y}] = {v} is out of range 0..{order - 1}")
            return rows

        outcomes = []
        for check in (core._check_table, per_entry):
            try:
                got = check(3, table, "add")
                outcomes.append(("ok", got, {type(v) for row in got for v in row}))
            except rgwa.InputError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_reported_witnesses_are_genuine_on_random_tables(self, data):
        # random tables mostly violate something; every reported witness must
        # substitute into its condition as a real inequality
        n = data.draw(st.integers(min_value=1, max_value=4))
        entry = st.integers(0, n - 1)
        table = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        add = data.draw(table)
        act = data.draw(table)
        report = rgwa.check_axioms(n, add, act, require_reduced=True)

        genuine = {
            "group.assoc": lambda x, y, z: add[add[x][y]][z] != add[x][add[y][z]],
            "group.identity": lambda x: add[0][x] != x or add[x][0] != x,
            "group.inverse": lambda x: not any(
                add[x][y] == 0 == add[y][x] for y in range(n)
            ),
            "action.add": lambda g, g2, h: act[add[g][g2]][h]
            != add[act[g][h]][act[g2][h]],
            "action.compose": lambda g, h, h2: act[g][add[h][h2]]
            != act[act[g][h]][h2],
            "action.zero": lambda g: act[g][0] != g,
            "reduced.central": lambda x, y, z: y != 0
            and add[act[x][y]][z] != add[z][act[x][y]],
            "reduced.collapse": lambda x, y, z: act[x][act[y][z]] != act[x][y],
        }
        seen = []
        for violation in report.violations:
            assert genuine[violation.condition](*violation.witness)
            seen.append(violation.condition)
        assert len(seen) == len(set(seen))  # one witness per condition
        # and exactly the loop-nest reference scan's report, either mode
        assert report == reference_check_axioms(n, add, act, True)
        assert rgwa.check_axioms(n, add, act) == reference_check_axioms(n, add, act)


def _valid_bases():
    """(order, add, act) of valid objects, reduced or not, to corrupt."""
    objs = rgwa.standard_corpus() + [negation_cyclic(4), negation_cyclic(6), shear_object()]
    bases = [(o.order, o.add, o.act) for o in objs]
    add, act = rgwa.s3_conjugation_tables()
    return bases + [(6, add, act)]


VALID_BASES = _valid_bases()


def _corrupt(rng_draw, base, count):
    """Mutable copies of a base's tables with ``count`` cells overwritten."""
    n, add, act = base
    tables = [[list(row) for row in add], [list(row) for row in act]]
    for _ in range(count):
        which, x, y, v = rng_draw(2), rng_draw(n), rng_draw(n), rng_draw(n)
        tables[which][x][y] = v
    return n, tables[0], tables[1]


def _random_morphism(rng_draw, objs):
    src, tgt = objs[rng_draw(len(objs))], objs[rng_draw(len(objs))]
    if rng_draw(2):
        mapping = tuple(rng_draw(tgt.order) for _ in range(src.order))
    else:
        # a zero or identity map with one entry changed: mostly near-misses
        mapping = [x if src is tgt else 0 for x in range(src.order)]
        mapping[rng_draw(src.order)] = rng_draw(tgt.order)
    return rgwa.GwaMorphism(src, tgt, tuple(mapping))


class TestScansAgainstReference:
    """The vectorized axiom and morphism scans report exactly what the
    pure-Python loop nests report, witnesses included."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_check_axioms_on_corrupted_tables(self, data):
        base = VALID_BASES[data.draw(st.integers(0, len(VALID_BASES) - 1))]
        count = data.draw(st.integers(0, 3))
        n, add, act = _corrupt(lambda k: data.draw(st.integers(0, k - 1)), base, count)
        for reduced in (False, True):
            assert rgwa.check_axioms(n, add, act, reduced) == \
                reference_check_axioms(n, add, act, reduced)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_morphism_on_random_maps(self, data):
        objs = rgwa.standard_corpus()[:8] + [negation_cyclic(4)]
        f = _random_morphism(lambda k: data.draw(st.integers(0, k - 1)), objs)
        assert rgwa.is_morphism(f) == reference_is_morphism(f)

    def test_witnesses_in_later_chunks(self, monkeypatch):
        # one leading row per chunk: every witness with a nonzero first
        # coordinate comes from a chunk after the first
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
        rng = random.Random(0)
        later = 0
        for _ in range(300):
            base = VALID_BASES[rng.randrange(len(VALID_BASES))]
            n, add, act = _corrupt(rng.randrange, base, rng.randint(1, 2))
            for reduced in (False, True):
                report = rgwa.check_axioms(n, add, act, reduced)
                assert report == reference_check_axioms(n, add, act, reduced)
                later += sum(v.witness[0] > 0 for v in report.violations)
        objs = rgwa.standard_corpus() + [negation_cyclic(4), shear_object()]
        for _ in range(300):
            f = _random_morphism(rng.randrange, objs)
            report = rgwa.is_morphism(f)
            assert report == reference_is_morphism(f)
            later += sum(v.witness[0] > 0 for v in report.violations)
        assert later > 1000


class TestMakeObject:
    def test_valid_z2(self):
        add, act = cyclic_tables(2)
        obj = rgwa.make_object("z2", 2, add, act)
        assert obj.order == 2 and obj.reduced

    def test_out_of_range_entry(self):
        add, act = cyclic_tables(3)
        act[1][2] = 7
        with pytest.raises(rgwa.InputError):
            rgwa.make_object("bad", 3, add, act)

    def test_s3_conjugation_rejected_with_report(self):
        add, act = rgwa.s3_conjugation_tables()
        with pytest.raises(rgwa.ValidationError) as exc:
            rgwa.make_object("s3conj", 6, add, act, require_reduced=True)
        assert "reduced.central" in exc.value.report.conditions()

    def test_gwa_only_flag_is_recorded(self):
        add, act = rgwa.s3_conjugation_tables()
        obj = rgwa.make_object("s3conj", 6, add, act, require_reduced=False)
        assert not obj.reduced and not obj.is_abelian

    def test_neg_table(self, corpus):
        for obj in corpus:
            for x in range(obj.order):
                assert obj.add[x][obj.neg[x]] == 0 == obj.add[obj.neg[x]][x]

    def test_neg_matches_the_loop_oracle(self, corpus, z4neg, k4swap, shear16):
        by_name = {o.name: o for o in corpus}
        objs = list(corpus) + [z4neg, k4swap, shear16]
        # PA(z2xz4) fails reduced.central, so its neg comes off a failed scan
        objs += [rgwa.build_pa_object(by_name[name]).object for name in ("z3", "z2xz4")]
        # 1 has the two-sided inverses 1 and 2 (the first is taken), 3 has none (0)
        add = ((0, 1, 2, 3), (1, 0, 0, 3), (2, 0, 3, 3), (3, 3, 3, 3))
        unchecked = rgwa.FiniteGwaObject("no-inverses", 4, add, tuple((x,) * 4 for x in range(4)))
        assert unchecked.neg == (0, 1, 1, 0)
        for obj in objs + [unchecked]:
            assert obj.neg == reference_neg(obj), obj.name


class TestMorphisms:
    def test_identity_passes(self, corpus):
        for obj in corpus:
            assert rgwa.is_morphism(rgwa.identity_morphism(obj)).passed

    def test_zero_map_between_trivial_objects_passes(self):
        z2, z4 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(4)
        f = rgwa.GwaMorphism(z2, z4, (0, 0))
        assert rgwa.is_morphism(f).passed

    def test_unit_map_z2_to_z4_fails_hom_add_at_1_1(self):
        z2, z4 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(4)
        report = rgwa.is_morphism(rgwa.GwaMorphism(z2, z4, (0, 1)))
        assert report.violations[0].condition == "hom.add"
        assert report.violations[0].witness == (1, 1)

    def test_doubling_map_z2_to_z4_passes(self):
        z2, z4 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(4)
        assert rgwa.is_morphism(rgwa.GwaMorphism(z2, z4, (0, 2))).passed

    def test_length_and_range_errors(self):
        z2, z4 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(4)
        with pytest.raises(rgwa.InputError):
            rgwa.is_morphism(rgwa.GwaMorphism(z2, z4, (0,)))
        with pytest.raises(rgwa.InputError):
            rgwa.is_morphism(rgwa.GwaMorphism(z2, z4, (0, 9)))

    def test_make_morphism_rejects_non_hom(self):
        z2, z4 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(4)
        with pytest.raises(rgwa.ValidationError):
            rgwa.make_morphism(z2, z4, (0, 1))


class TestSubobjectClosure:
    def test_empty_seeds_give_zero(self, corpus):
        for obj in corpus:
            assert rgwa.subobject_closure(obj, ()).members == (0,)

    def test_generator_of_z4(self):
        z4 = rgwa.cyclic_trivial(4)
        assert rgwa.subobject_closure(z4, {1}).members == (0, 1, 2, 3)

    def test_even_subgroup_of_z6(self):
        z6 = rgwa.cyclic_trivial(6)
        assert rgwa.subobject_closure(z6, {2}).members == (0, 2, 4)

    def test_closure_is_idempotent(self, corpus):
        for obj in corpus:
            once = rgwa.subobject_closure(obj, {1 % obj.order})
            again = rgwa.subobject_closure(obj, once.members)
            assert once.members == again.members

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_closure_idempotent_and_monotone(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        obj = rgwa.cyclic_trivial(n)
        small = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        extra = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        closed = rgwa.subobject_closure(obj, small)
        assert rgwa.subobject_closure(obj, closed.members).members == closed.members
        bigger = rgwa.subobject_closure(obj, small | extra)
        assert set(closed.members) <= set(bigger.members)

    def test_closure_respects_nontrivial_action(self, z4neg):
        # 2 is fixed by negation, so {0, 2} is already action-closed
        assert rgwa.subobject_closure(z4neg, {2}).members == (0, 2)

    def test_out_of_range_seed(self):
        with pytest.raises(rgwa.InputError):
            rgwa.subobject_closure(rgwa.cyclic_trivial(2), {5})


class TestGeneratorMachinery:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (8, 4)])
    def test_additive_bijections_of_cyclic_are_units(self, n, count):
        obj = rgwa.cyclic_trivial(n)
        bijections = rgwa.additive_bijections(obj)
        assert len(bijections) == count
        for f in bijections:
            k = f[1]
            assert f == tuple((k * x) % n for x in range(n))

    def test_klein4_has_six_automorphisms(self, corpus):
        klein4 = next(o for o in corpus if o.name == "klein4")
        assert len(rgwa.additive_bijections(klein4)) == 6

    def test_words_reach_the_whole_carrier(self, corpus, z4neg, k4swap):
        for obj in list(corpus) + [z4neg, k4swap]:
            gens, steps = generating_words(obj)
            assert additive_closure(obj, gens) == set(range(obj.order))
            assert {elem for elem, *_ in steps} | {0} == set(range(obj.order))

    def test_extension_reproduces_known_map(self):
        z6 = rgwa.cyclic_trivial(6)
        gens, steps = generating_words(z6)
        assert gens == (1,)
        add = np.asarray(z6.add)
        f = _generator_walk(steps, np.array([[5], [1]]), 0, lambda prev, img, step: add[
            prev, img if step[3] > 0 else -img % 6])
        assert f.tolist() == [[(5 * x) % 6 for x in range(6)], list(range(6))]


class TestQuotients:
    def test_z4_mod_even_is_z2(self):
        z4 = rgwa.cyclic_trivial(4)
        w = rgwa.subobject_closure(z4, {2})
        q = rgwa.quotient_by_subgroup(z4, w)
        assert q.table_equal(rgwa.cyclic_trivial(2))

    def test_quotient_by_zero_is_identity_relabeling(self, corpus):
        for obj in corpus:
            w = rgwa.subobject_closure(obj, ())
            q = rgwa.quotient_by_subgroup(obj, w)
            assert q.table_equal(obj)

    def test_z6_mod_even_is_z2(self):
        z6 = rgwa.cyclic_trivial(6)
        w = rgwa.ElementSet(z6, (0, 2, 4))
        q = rgwa.quotient_by_subgroup(z6, w)
        assert q.table_equal(rgwa.cyclic_trivial(2))

    def test_projection_is_a_surjective_morphism(self):
        z6 = rgwa.cyclic_trivial(6)
        w = rgwa.ElementSet(z6, (0, 3))
        tau = rgwa.quotient_map(z6, w)
        assert rgwa.is_morphism(tau).passed
        assert set(tau.map) == set(range(tau.target.order))
        assert tau.map[0] == 0

    def test_non_subgroup_rejected(self):
        z6 = rgwa.cyclic_trivial(6)
        with pytest.raises(rgwa.InputError):
            rgwa.quotient_by_subgroup(z6, rgwa.ElementSet(z6, (0, 2)))

    def test_nontrivial_action_unsupported(self, z4neg):
        w = rgwa.ElementSet(z4neg, (0, 2))
        with pytest.raises(rgwa.UnsupportedInputError):
            rgwa.quotient_by_subgroup(z4neg, w)

    def test_non_abelian_unsupported(self):
        add, act = rgwa.s3_conjugation_tables()
        s3 = rgwa.make_object("s3conj", 6, add, act, require_reduced=False)
        with pytest.raises(rgwa.UnsupportedInputError):
            rgwa.quotient_by_subgroup(s3, rgwa.ElementSet(s3, (0,)))


class TestCorpusInvariants:
    def test_reduced_laws_hold_by_full_scan(self, corpus, z4neg, k4swap):
        for obj in list(corpus) + [z4neg, k4swap]:
            n = obj.order
            for x in range(n):
                for y in range(1, n):
                    v = obj.act[x][y]
                    assert all(obj.add[v][z] == obj.add[z][v] for z in range(n))
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert obj.act[x][obj.act[y][z]] == obj.act[x][y]

    def test_zero_is_fixed_by_every_exponent(self, corpus, z4neg):
        for obj in list(corpus) + [z4neg]:
            assert all(obj.act[0][h] == 0 for h in range(obj.order))

    def test_fixed_points_survive_negated_exponents(self, corpus, z4neg, k4swap):
        for obj in list(corpus) + [z4neg, k4swap]:
            for x in range(obj.order):
                for a in range(obj.order):
                    if obj.act[x][a] == x:
                        assert obj.act[x][obj.neg[a]] == x

    def test_exponent_maps_are_bijective(self, corpus, z4neg):
        # forced by the action axioms; the derived subobject is therefore
        # always the whole carrier on validated objects
        for obj in list(corpus) + [z4neg]:
            for y in range(obj.order):
                assert len({obj.act[x][y] for x in range(obj.order)}) == obj.order

    def test_action_values_factor_through_shifted_exponents(self, corpus, z4neg, shear16):
        # (a1^(a2-y))^(y^z) = a1^a2: compose and collapse together let any
        # action value be rewritten with an exponent that is itself an
        # action value
        for obj in list(corpus) + [z4neg, shear16]:
            n = obj.order
            for a1 in range(n):
                for a2 in range(n):
                    want = obj.act[a1][a2]
                    for y in range(n):
                        partial = obj.act[a1][obj.sub(a2, y)]
                        for z in range(n):
                            assert obj.act[partial][obj.act[y][z]] == want

    def test_shifted_action_values_stabilize_everything(self, corpus, z4neg, shear16):
        # a^(a1^a2 - a1) = a for every a: the differences a1^a2 - a1 always
        # act trivially
        for obj in list(corpus) + [z4neg, shear16]:
            n = obj.order
            for a1 in range(n):
                for a2 in range(n):
                    shifted = obj.sub(obj.act[a1][a2], a1)
                    for a in range(n):
                        assert obj.act[a][shifted] == a
