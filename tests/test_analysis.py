"""Derived subobject, stabilizers, and the quotient chain."""

import pytest

import rgwa
from conftest import negation_product, reference_noether_quotient, reference_weak_stabilizer
from rgwa import analysis
from rgwa.core import generating_words


def abelian_trivial_carriers(corpus):
    """z1, every abelian trivial-action corpus carrier, z2xz2xz4 and z3xz9."""
    z, ds = rgwa.cyclic_trivial, rgwa.direct_sum
    return ([z(1)] + [o for o in corpus if o.is_abelian and o.has_trivial_action]
            + [ds(ds(z(2), z(2)), z(4)), ds(z(3), z(9))])


def weak_stabilizer_by_definition(obj):
    """Literal recomputation of the three families with pent_add for the
    third, element by element; cross-checks the vectorized implementation."""
    pents = rgwa.enumerate_pentactions(obj)
    values = set()
    for p in pents:
        for q in pents:
            sum_pq = rgwa.pent_add(p, q)
            sum_qp = rgwa.pent_add(q, p)
            for a in range(obj.order):
                values.add(p.pow[q.pow[a]])
                values.add(obj.sub(p.pow[q.up[a]], p.pow[a]))
                values.add(obj.sub(sum_pq.up[a], sum_qp.up[a]))
    return tuple(sorted(values))


class TestDerivedSubobject:
    def test_cyclic_trivial_is_all(self):
        for n in (2, 3, 5, 8):
            obj = rgwa.cyclic_trivial(n)
            assert rgwa.derived_subobject(obj).members == tuple(range(n))

    def test_zero_object(self):
        assert rgwa.derived_subobject(rgwa.cyclic_trivial(1)).members == (0,)

    def test_nontrivial_action_still_spans(self, z4neg):
        assert rgwa.derived_subobject(z4neg).members == (0, 1, 2, 3)

    def test_every_valid_object_is_perfect(self, corpus, z4neg, k4swap):
        # exponent maps are bijections, so no validated carrier can confine
        # its action values to a proper subgroup
        for obj in list(corpus) + [z4neg, k4swap]:
            assert rgwa.is_perfect(obj)


class TestStabilizer:
    def test_trivial_action_stabilizes_everything(self, corpus):
        for obj in corpus:
            assert rgwa.stabilizer(obj).members == tuple(range(obj.order))

    def test_zero_object(self):
        assert rgwa.stabilizer(rgwa.cyclic_trivial(1)).members == (0,)

    def test_negation_action_keeps_even_exponents(self, z4neg):
        assert rgwa.stabilizer(z4neg).members == (0, 2)

    def test_stabilizer_is_a_subobject(self, corpus, z4neg, k4swap):
        for obj in list(corpus) + [z4neg, k4swap]:
            st = rgwa.stabilizer(obj)
            assert rgwa.subobject_closure(obj, st.members).members == st.members

    def test_zero_stabilizer_only_for_the_zero_object(self, corpus, z4neg, k4swap):
        for obj in list(corpus) + [z4neg, k4swap]:
            if rgwa.stabilizer(obj).members == (0,):
                assert obj.order == 1


class TestWeakStabilizer:
    def test_zero_object(self):
        assert rgwa.weak_stabilizer(rgwa.cyclic_trivial(1)).members == (0,)

    def test_z2_is_full(self):
        # the pentaction with pow = id at a = 1 puts 1 into the first family
        wst = rgwa.weak_stabilizer(rgwa.cyclic_trivial(2))
        assert wst.members == (0, 1)

    def test_z3_is_full(self):
        assert rgwa.weak_stabilizer(rgwa.cyclic_trivial(3)).members == (0, 1, 2)

    def test_negation_carriers_have_zero_weak_stabilizer(self, z4neg, k4swap):
        assert rgwa.weak_stabilizer(z4neg).is_zero()
        assert rgwa.weak_stabilizer(k4swap).is_zero()

    def test_shear_carrier_has_zero_weak_stabilizer(self, shear16):
        assert rgwa.is_perfect(shear16)
        assert rgwa.weak_stabilizer(shear16).is_zero()

    def test_matches_the_literal_recomputation(self, corpus, z4neg, k4swap):
        subjects = [o for o in corpus if o.order <= 4] + [z4neg, k4swap]
        for obj in subjects:
            assert rgwa.weak_stabilizer(obj).members == weak_stabilizer_by_definition(obj)

    def test_matches_the_whole_array_version(self, corpus, z4neg, k4swap, shear16):
        for obj in list(corpus) + [z4neg, k4swap, shear16,
                                   negation_product(4, 4), negation_product(8, 2)]:
            assert rgwa.weak_stabilizer(obj) == reference_weak_stabilizer(obj), obj.name

    def test_the_scan_stops_once_every_element_is_marked(self, monkeypatch, corpus):
        # the set only grows: on klein4 the central row marks all of A, and
        # on z2xz4 the central and a9 rows do, so the rows after never run
        ran = []
        rows = tuple((cid, axes, lambda *a, cid=cid, value=value: ran.append(cid) or value(*a),
                      witness) for cid, axes, value, witness in analysis._OBSTRUCTIONS)
        monkeypatch.setattr(analysis, "_OBSTRUCTIONS", rows)
        by_name = {o.name: o for o in corpus}
        for name, skipped in (("klein4", {"a9", "a10"}), ("z2xz4", {"a10"})):
            obj = by_name[name]
            ran.clear()
            wst = rgwa.weak_stabilizer(obj)
            assert wst == reference_weak_stabilizer(obj), name
            assert len(wst) == obj.order, name
            assert ran and not skipped & set(ran), (name, ran)
        assert "a9" in ran

    def test_one_pentaction_per_chunk(self, monkeypatch, corpus, z4neg, shear16):
        monkeypatch.setattr(rgwa.core, "_CHUNK_CELLS", 1)
        for obj in [o for o in corpus if o.order <= 8] + [z4neg, shear16]:
            assert rgwa.weak_stabilizer(obj) == reference_weak_stabilizer(obj), obj.name

    def test_contained_in_stabilizer(self, corpus, z4neg, k4swap, z6neg):
        for obj in list(corpus) + [z4neg, k4swap, z6neg]:
            wst = set(rgwa.weak_stabilizer(obj).members)
            assert wst <= set(rgwa.stabilizer(obj).members)

    def test_budget_propagates(self):
        with pytest.raises(rgwa.BudgetExceededError):
            rgwa.weak_stabilizer(rgwa.cyclic_trivial(4), budget=1)


class TestNoetherQuotient:
    def test_zero_object_has_an_empty_chain(self):
        chain = rgwa.noether_quotient(rgwa.cyclic_trivial(1))
        assert chain.subgroups == ()
        assert chain.quotient.order == 1

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_terminates_with_zero_weak_stabilizer(self, n):
        chain = rgwa.noether_quotient(rgwa.cyclic_trivial(n))
        assert rgwa.weak_stabilizer(chain.quotient).is_zero()
        sizes = [len(w) for w in chain.subgroups]
        assert sizes == sorted(set(sizes))  # strictly increasing

    @pytest.mark.parametrize("n,lengths,quotient_order", [
        (2, [2], 1), (4, [4], 1), (6, [6], 1),
    ])
    def test_regression_fixtures(self, n, lengths, quotient_order):
        # recorded on the first verified run: the full carrier is already
        # generated by the weak stabilizer, so one step reaches the zero object
        chain = rgwa.noether_quotient(rgwa.cyclic_trivial(n))
        assert [len(w) for w in chain.subgroups] == lengths
        assert chain.quotient.order == quotient_order

    def test_chain_members_are_subgroups_and_strict(self, corpus):
        for obj in corpus:
            if not (obj.is_abelian and obj.has_trivial_action):
                continue
            chain = rgwa.noether_quotient(obj)
            previous = set()
            for w in chain.subgroups:
                members = set(w.members)
                assert rgwa.subobject_closure(obj, w.members).members == w.members
                assert previous < members
                previous = members

    def test_quotients_stay_perfect_along_the_chain(self):
        # quotients of perfect carriers are perfect
        for n in (2, 4, 6, 8):
            obj = rgwa.cyclic_trivial(n)
            chain = rgwa.noether_quotient(obj)
            for w in chain.subgroups:
                assert rgwa.is_perfect(rgwa.quotient_by_subgroup(obj, w))

    def test_unsupported_carriers(self, z4neg):
        with pytest.raises(rgwa.UnsupportedInputError):
            rgwa.noether_quotient(z4neg)

    def test_matches_the_loop_oracle(self, corpus):
        # the lemma: the weak stabilizer of a nonzero carrier is all of it,
        # so the loop stops after one round, at the zero object
        for obj in abelian_trivial_carriers(corpus):
            chain, want = rgwa.noether_quotient(obj), reference_noether_quotient(obj)
            assert chain == want, obj.name
            assert chain.quotient.name == want.quotient.name, obj.name
            assert chain.quotient.order == 1, obj.name

    @pytest.mark.parametrize("name", ["z1", "z8", "z2xz4"])
    def test_budget_refusals_match_the_weak_stabilizer(self, corpus, name):
        # the one charge is that of the scan of obj; below either bound both
        # refuse with the same text, and at the charge both run
        obj = {o.name: o for o in abelian_trivial_carriers(corpus)}[name]
        rows = obj.order ** len(generating_words(obj)[0])
        charge = len(rgwa.additive_bijections(obj)) * rows
        for budget in sorted({0, rows - 1, rows, charge - 1} - {charge}):
            with pytest.raises(rgwa.BudgetExceededError) as got:
                rgwa.noether_quotient(obj, budget=budget)
            with pytest.raises(rgwa.BudgetExceededError) as want:
                rgwa.weak_stabilizer(obj, budget=budget)
            assert str(got.value) == str(want.value), (name, budget)
        assert rgwa.noether_quotient(obj, budget=charge) == reference_noether_quotient(obj)

    def test_unreduced_carriers_stay_unsupported(self):
        # abelian with trivial action, but not validated with the reduced checks
        obj = rgwa.make_object("z4", 4, [[(x + y) % 4 for y in range(4)] for x in range(4)],
                               [[x] * 4 for x in range(4)], require_reduced=False)
        assert obj.is_abelian and obj.has_trivial_action and not obj.reduced
        with pytest.raises(rgwa.UnsupportedInputError):
            rgwa.noether_quotient(obj)


class TestAnalysisReport:
    def test_json_shape_for_trivial_carrier(self):
        report = rgwa.analysis_report(rgwa.cyclic_trivial(2))
        assert report == {
            "perfect": True,
            "stabilizer": [0, 1],
            "weak_stabilizer": [0, 1],
            "noether_chain": {"subgroup_orders": [2], "quotient_order": 1},
        }

    def test_scans_the_weak_stabilizer_once(self, monkeypatch):
        calls = []
        scan = analysis.weak_stabilizer
        monkeypatch.setattr(analysis, "weak_stabilizer",
                            lambda obj, budget: calls.append(obj.name) or scan(obj, budget))
        report = rgwa.analysis_report(rgwa.cyclic_trivial(8))
        assert calls == ["z8"]
        assert report["noether_chain"] == {"subgroup_orders": [8], "quotient_order": 1}

    def test_chain_is_null_outside_scope(self, z4neg):
        report = rgwa.analysis_report(z4neg)
        assert report["noether_chain"] is None
        assert report["weak_stabilizer"] == [0]
