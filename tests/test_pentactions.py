"""Pentaction conditions, operations, and the two enumerators."""

import random
import re
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rgwa
from conftest import (
    _clear_object_caches,
    assert_batch_verdicts,
    assert_rows_read_only_their_tables,
    k4swap_object,
    negation_cyclic,
    negation_product,
    reference_check_pentaction,
    reference_enumerate_pentactions,
    shear_object,
)
from rgwa import core, extensions, pa, pentactions
from rgwa.files import pentaction_to_json
from rgwa.pa import _canonical_factors
from rgwa.pentactions import CONDITION_IDS, check_pentactions_batch


def ident(n):
    return tuple(range(n))


def pent(obj, dotL=None, dotR=None, up=None, upL=None, pw=None):
    n = obj.order
    return rgwa.Pentaction(
        obj,
        tuple(dotL) if dotL else ident(n),
        tuple(dotR) if dotR else ident(n),
        tuple(up) if up else ident(n),
        tuple(upL) if upL else ident(n),
        tuple(pw) if pw else (0,) * n,
    )


class TestCheckPentaction:
    def test_zero_pentaction_passes_everywhere(self, corpus, z4neg, k4swap, z6neg):
        for obj in list(corpus) + [z4neg, k4swap, z6neg]:
            report = rgwa.check_pentaction(rgwa.zero_pentaction(obj))
            assert report.passed, (obj.name, report.conditions())

    def test_identity_candidates_on_z2(self):
        z2 = rgwa.cyclic_trivial(2)
        assert rgwa.check_pentaction(pent(z2)).passed
        assert rgwa.check_pentaction(pent(z2, pw=(0, 1))).passed

    def test_constant_dot_fails_invertibility(self):
        z2 = rgwa.cyclic_trivial(2)
        report = rgwa.check_pentaction(pent(z2, dotL=(0, 0)))
        assert "p11" in report.conditions()

    def test_non_additive_up_fails_p2(self):
        z3 = rgwa.cyclic_trivial(3)
        report = rgwa.check_pentaction(pent(z3, up=(1, 2, 0), upL=(2, 0, 1)))
        assert "p2" in report.conditions()
        violation = next(v for v in report.violations if v.condition == "p2")
        a, a2 = violation.witness
        up = (1, 2, 0)
        assert up[(a + a2) % 3] != (up[a] + up[a2]) % 3

    def test_pow_must_vanish_at_zero(self):
        z3 = rgwa.cyclic_trivial(3)
        report = rgwa.check_pentaction(pent(z3, pw=(1, 1, 1)))
        assert "p4" in report.conditions()

    def test_noncentral_image_without_movement_passes_p8(self, corpus):
        # up = identity leaves the p8 hypothesis false on every carrier
        for obj in corpus:
            assert rgwa.check_pentaction(rgwa.zero_pentaction(obj)).passed

    def test_shape_errors(self):
        z2 = rgwa.cyclic_trivial(2)
        with pytest.raises(rgwa.InputError):
            rgwa.check_pentaction(rgwa.Pentaction(z2, (0,), (0, 1), (0, 1), (0, 1), (0, 0)))
        with pytest.raises(rgwa.InputError):
            rgwa.check_pentaction(pent(z2, pw=(0, 7)))

    @pytest.mark.parametrize("slots, message", [
        ({"pow": (0, 0.7)}, "pow[1] = 0.7 is not an integer"),
        ({"up": (0, True), "pow": (0, 0.7)}, "up[1] = True is not an integer"),
        ({"dotL": 5}, "dotL is 5, not a list of entries"),
        ({"pow": None}, "pow is None, not a list of entries"),
        ({"upL": (0,)}, "upL has 1 entries, expected 2"),
        ({"dotR": (0, 2), "pow": (0, 0.7)}, "pow[1] = 0.7 is not an integer"),
        ({"dotR": (0, 2)}, "dotR[1] = 2 is out of range 0..1"),
    ], ids=["float", "first-bad-entry", "not-a-list", "none", "length", "entries-first",
            "range"])
    def test_malformed_slots_are_input_errors(self, slots, message):
        # one check for every slot, naming the first bad entry or the slot;
        # no float is truncated into a table that passes
        z2 = rgwa.cyclic_trivial(2)
        cand = replace(rgwa.zero_pentaction(z2), **slots)
        for check in (rgwa.check_pentaction,
                      lambda c: check_pentactions_batch([rgwa.zero_pentaction(z2), c])):
            with pytest.raises(rgwa.InputError, match=f"^{re.escape(message)}$"):
                check(cand)

    def test_condition_ids_are_canonical(self):
        assert CONDITION_IDS == (
            "p1", "p1d", "p2", "p2d", "p3", "p3d", "p4", "p5", "p5d", "p6",
            "p6d", "p7", "p8", "p8d", "p9", "p9d", "p10", "p11", "p12",
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_agrees_with_scalar(self, data):
        from conftest import negation_cyclic

        objs = [rgwa.cyclic_trivial(3), negation_cyclic(4)]
        obj = objs[data.draw(st.integers(0, 1))]
        n = obj.order
        batch = [
            rgwa.Pentaction(obj, *(
                tuple(data.draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(5)
            ))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        assert check_pentactions_batch(batch).tolist() == [
            rgwa.check_pentaction(cand).passed for cand in batch
        ]


@lru_cache(maxsize=None)
def _pentaction_bases():
    """Objects with candidates to corrupt: their enumerated pentactions, or
    for s3 (validated without the reduced checks) the identity maps with a
    zero pow table.  s3 is not abelian, so only there can p8 and p8d fail."""
    s3 = rgwa.make_object("s3", 6, *rgwa.s3_conjugation_tables(), require_reduced=False)
    objs = [rgwa.cyclic_trivial(3), negation_cyclic(4), k4swap_object(), shear_object(),
            negation_product(4, 2)]
    ident = tuple(range(6))
    return [(obj, rgwa.enumerate_pentactions(obj)) for obj in objs] + [
        (s3, [rgwa.Pentaction(s3, ident, ident, ident, ident, (0,) * 6)])
    ]


def _corrupted_pentaction(draw) -> rgwa.Pentaction:
    """A base candidate of some object with up to four entries replaced;
    ``draw(k)`` picks an integer in 0..k-1."""
    obj, bases = _pentaction_bases()[draw(len(_pentaction_bases()))]
    return _corrupted(obj, bases[draw(len(bases))], draw)


def _corrupted(obj, base, draw) -> rgwa.Pentaction:
    tables = [list(table) for table in base.tables().values()]
    for _ in range(draw(5)):
        tables[draw(5)][draw(obj.order)] = draw(obj.order)
    return rgwa.Pentaction(obj, *map(tuple, tables))


class TestScanAgainstReference:
    """The vectorized 19-condition scan reports exactly what the pure-Python
    loop nest reports, witnesses included."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_candidates(self, data):
        cand = _corrupted_pentaction(lambda k: data.draw(st.integers(0, k - 1)))
        assert rgwa.check_pentaction(cand) == reference_check_pentaction(cand)

    def test_witnesses_in_later_chunks(self, monkeypatch):
        # one leading index per chunk: every witness with a nonzero first
        # coordinate comes from a chunk after the first
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
        rng = random.Random(0)
        later, seen = 0, set()
        for _ in range(300):
            cand = _corrupted_pentaction(rng.randrange)
            report = rgwa.check_pentaction(cand)
            assert report == reference_check_pentaction(cand)
            later += sum(v.witness[0] > 0 for v in report.violations)
            seen.update(report.conditions())
        assert later > 600
        assert len(seen) == 19


class TestRowFormat:
    """Every row of ``_CONDITIONS`` reads only the slots it names, each led
    by a candidate axis, and ``core._passing`` over a batch gives the
    verdicts of one ``core._violations`` scan per candidate."""

    def test_rows_read_only_their_slots(self):
        rng = random.Random(1)
        for _ in range(60):
            cand = _corrupted_pentaction(rng.randrange)
            assert_rows_read_only_their_tables(
                partial(pentactions._tables, cand.parent),
                {slot: [table] for slot, table in cand.tables().items()},
                pentactions._CONDITIONS, {"A": cand.parent.order},
            )

    @pytest.mark.parametrize("chunk_cells", [None, 1], ids=["default-chunks", "one-cell-chunks"])
    def test_batch_verdicts_match_one_scan_per_candidate(self, monkeypatch, chunk_cells):
        if chunk_cells is not None:
            monkeypatch.setattr(core, "_CHUNK_CELLS", chunk_cells)
        rng = random.Random(2)
        passed = 0
        for obj, bases in _pentaction_bases():
            batch = [_corrupted(obj, rng.choice(bases), rng.randrange) for _ in range(6)]
            slots = {slot: np.asarray([getattr(c, slot) for c in batch])
                     for slot in pentactions._SLOTS}
            make, sizes = partial(pentactions._tables, obj), {"A": obj.order}
            assert_batch_verdicts(make, slots, pentactions._CONDITIONS, sizes)
            empty = make(**{slot: table[:0] for slot, table in slots.items()})
            assert core._passing(empty, pentactions._CONDITIONS, sizes).shape == (0,)
            passed += sum(rgwa.check_pentaction(c).passed for c in batch)
        assert passed > 0


class TestZeroPentaction:
    def test_zero_object(self):
        p = rgwa.zero_pentaction(rgwa.cyclic_trivial(1))
        assert p.tables() == {k: (0,) for k in ("dotL", "dotR", "up", "upL", "pow")}

    def test_z3_tables(self):
        p = rgwa.zero_pentaction(rgwa.cyclic_trivial(3))
        assert p.dotL == (0, 1, 2) and p.pow == (0, 0, 0)

    def test_refused_on_non_reduced_objects(self):
        add, act = rgwa.s3_conjugation_tables()
        s3 = rgwa.make_object("s3conj", 6, add, act, require_reduced=False)
        with pytest.raises(rgwa.UnsupportedInputError):
            rgwa.zero_pentaction(s3)


class TestOperations:
    def test_add_zero_laws(self, corpus, z4neg):
        for obj in [corpus[1], corpus[2], z4neg]:
            zero = rgwa.zero_pentaction(obj)
            for p in rgwa.enumerate_pentactions(obj):
                assert rgwa.pent_add(p, zero) == p
                assert rgwa.pent_add(zero, p) == p

    def test_add_composes_exponents_on_z3(self):
        z3 = rgwa.cyclic_trivial(3)
        doubling, back = (0, 2, 1), (0, 2, 1)
        p = pent(z3, up=doubling, upL=back, pw=(0, 1, 2))
        q = pent(z3, up=doubling, upL=back, pw=(0, 2, 4 % 3))
        s = rgwa.pent_add(p, q)
        # up of the sum composes q.up after p.up; pow adds pointwise here
        assert s.up == tuple(q.up[p.up[a]] for a in range(3)) == (0, 1, 2)
        assert s.pow == tuple((p.pow[a] + q.pow[a]) % 3 for a in range(3))

    def test_add_is_associative_on_enumerated_sets(self, z4neg):
        for obj in [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3), z4neg]:
            pents = rgwa.enumerate_pentactions(obj)
            for p in pents:
                for q in pents:
                    pq = rgwa.pent_add(p, q)
                    for r in pents:
                        assert rgwa.pent_add(pq, r) == rgwa.pent_add(p, rgwa.pent_add(q, r))

    def test_add_rejects_mismatched_parents(self):
        p = rgwa.zero_pentaction(rgwa.cyclic_trivial(2))
        q = rgwa.zero_pentaction(rgwa.cyclic_trivial(3))
        with pytest.raises(rgwa.InputError):
            rgwa.pent_add(p, q)

    def test_neg_fixes_zero(self, corpus):
        for obj in corpus:
            zero = rgwa.zero_pentaction(obj)
            assert rgwa.pent_neg(zero) == zero

    def test_neg_inverts_the_exponent_map(self):
        z5 = rgwa.cyclic_trivial(5)
        doubling = tuple((2 * x) % 5 for x in range(5))
        tripling = tuple((3 * x) % 5 for x in range(5))  # inverse of doubling
        p = pent(z5, up=doubling, upL=tripling)
        assert rgwa.pent_neg(p).up == tripling

    def test_double_negation(self, z4neg):
        for obj in [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3), z4neg]:
            for p in rgwa.enumerate_pentactions(obj):
                assert rgwa.pent_neg(rgwa.pent_neg(p)) == p

    def test_neg_is_the_additive_inverse(self, z4neg):
        for obj in [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3), z4neg]:
            zero = rgwa.zero_pentaction(obj)
            for p in rgwa.enumerate_pentactions(obj):
                assert rgwa.pent_add(p, rgwa.pent_neg(p)) == zero
                assert rgwa.pent_add(rgwa.pent_neg(p), p) == zero

    def test_pow_by_zero_is_identity_on_perfect_carriers(self, z4neg):
        for obj in [rgwa.cyclic_trivial(3), z4neg]:
            zero = rgwa.zero_pentaction(obj)
            for p in rgwa.enumerate_pentactions(obj):
                assert rgwa.pent_pow(p, zero) == p

    def test_zero_pow_anything_has_zero_pow_table(self, z4neg):
        for obj in [rgwa.cyclic_trivial(3), z4neg]:
            zero = rgwa.zero_pentaction(obj)
            for q in rgwa.enumerate_pentactions(obj):
                assert rgwa.pent_pow(zero, q).pow == (0,) * obj.order

    def test_power_exchange_identity(self, z4neg, k4swap):
        # (p^q).pow agrees with q.up applied after p.pow on perfect carriers
        for obj in [rgwa.cyclic_trivial(3), z4neg, k4swap]:
            pents = rgwa.enumerate_pentactions(obj)
            for p in pents:
                for q in pents:
                    got = rgwa.pent_pow(p, q).pow
                    assert got == tuple(q.up[p.pow[a]] for a in range(obj.order))


class TestEnumeration:
    def test_zero_object_has_one_pentaction(self):
        assert len(rgwa.enumerate_pentactions(rgwa.cyclic_trivial(1))) == 1

    def test_z2_has_exactly_two(self):
        pents = rgwa.enumerate_pentactions(rgwa.cyclic_trivial(2))
        assert [p.tables() for p in pents] == [
            {"dotL": (0, 1), "dotR": (0, 1), "up": (0, 1), "upL": (0, 1), "pow": (0, 0)},
            {"dotL": (0, 1), "dotR": (0, 1), "up": (0, 1), "upL": (0, 1), "pow": (0, 1)},
        ]

    def test_z3_has_six_with_the_expected_shape(self):
        pents = rgwa.enumerate_pentactions(rgwa.cyclic_trivial(3))
        assert len(pents) == 6
        assert all(p.dotL == (0, 1, 2) == p.dotR for p in pents)
        assert {p.up for p in pents} == {(0, 1, 2), (0, 2, 1)}
        assert {p.pow for p in pents} == {(0, 0, 0), (0, 1, 2), (0, 2, 1)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence_on_cyclic(self, n):
        obj = rgwa.cyclic_trivial(n)
        pruned = rgwa.enumerate_pentactions(obj)
        brute = rgwa.enumerate_pentactions_bruteforce(obj)
        assert [p.key() for p in pruned] == [p.key() for p in brute]

    def test_enumeration_is_sorted_canonically(self, corpus):
        for obj in corpus[:6]:
            keys = [p.key() for p in rgwa.enumerate_pentactions(obj)]
            assert keys == sorted(keys)

    def test_every_enumerated_value_passes_the_checker(self, corpus, z4neg, k4swap):
        for obj in list(corpus) + [z4neg, k4swap]:
            pents = rgwa.enumerate_pentactions(obj)
            assert all(rgwa.check_pentaction(p).passed for p in pents)

    def test_derived_vanishing_consequences(self, corpus, z4neg):
        for obj in list(corpus) + [z4neg]:
            for p in rgwa.enumerate_pentactions(obj):
                assert p.up[0] == 0 and p.upL[0] == 0 and p.pow[0] == 0

    def test_perfect_carriers_force_identity_dots(self, corpus, z4neg, k4swap):
        for obj in list(corpus) + [z4neg, k4swap]:
            assert rgwa.is_perfect(obj)
            for p in rgwa.enumerate_pentactions(obj):
                assert p.dotL == ident(obj.order) == p.dotR

    def test_closure_under_add_and_pow(self, z4neg, k4swap):
        for obj in [rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3), z4neg, k4swap]:
            pents = rgwa.enumerate_pentactions(obj)
            sums = [rgwa.pent_add(p, q) for p in pents for q in pents]
            powers = [rgwa.pent_pow(p, q) for p in pents for q in pents]
            assert check_pentactions_batch(sums).all()
            assert check_pentactions_batch(powers).all()

    def test_counts_on_nontrivial_actions(self, z4neg, k4swap, z6neg):
        # regression values from the first verified run of the pruned
        # enumerator (no independent oracle exists above order 3)
        assert len(rgwa.enumerate_pentactions(z4neg)) == 4
        assert len(rgwa.enumerate_pentactions(k4swap)) == 4
        assert len(rgwa.enumerate_pentactions(z6neg)) == 6

    def test_census_regressions_on_larger_corpus_members(self, corpus):
        # automorphism count times endomorphism count on trivial carriers
        by_name = {o.name: o for o in corpus}
        assert len(rgwa.enumerate_pentactions(by_name["z8"])) == 32
        assert len(rgwa.enumerate_pentactions(by_name["klein4"])) == 96
        assert len(rgwa.enumerate_pentactions(by_name["z2xz4"])) == 256

    def test_shear_carrier_census_and_closure(self, shear16):
        pents = rgwa.enumerate_pentactions(shear16)
        assert len(pents) == 16  # regression from the first verified run
        assert all(rgwa.check_pentaction(p).passed for p in pents)
        sums = [rgwa.pent_add(p, q) for p in pents for q in pents]
        powers = [rgwa.pent_pow(p, q) for p in pents for q in pents]
        assert check_pentactions_batch(sums).all()
        assert check_pentactions_batch(powers).all()

    @pytest.mark.parametrize("chunk_cells", [None, 1],
                             ids=["default-chunks", "one-candidate-chunks"])
    def test_factors_match_the_product_scan(self, monkeypatch, chunk_cells,
                                            corpus, z4neg, z6neg, k4swap, shear16):
        # order included: the product of the sorted factors is already canonical
        if chunk_cells is not None:
            # one cell per chunk: the map factor is scanned one candidate at a time
            monkeypatch.setattr(core, "_CHUNK_CELLS", chunk_cells)
        pentactions._map_factor.cache_clear()
        pentactions._enumerate_pentactions_uncapped.cache_clear()
        subjects = list(corpus) + [z4neg, z6neg, k4swap, shear16,
                                   negation_product(4, 4), negation_product(8, 2)]
        for obj in subjects:
            assert rgwa.enumerate_pentactions(obj) == reference_enumerate_pentactions(obj), obj.name

    def test_no_condition_couples_pow_to_the_maps(self):
        # the set is the product of its two factors only while this holds
        for cid, _, needed, _ in pentactions._CONDITIONS:
            assert needed == ("pow",) or "pow" not in needed, cid
        staged = pentactions._MAP_CONDITIONS + pentactions._POW_CONDITIONS
        assert sorted(c[0] for c in staged) == sorted(CONDITION_IDS)

    def test_the_factors_are_one_read_only_copy(self, corpus, z4neg):
        # PA(A), the weak stabilizer and the derived-action pow stage all
        # read the cached arrays, so none of them may write into them
        for obj in (corpus[3], z4neg):
            f = _canonical_factors(obj)
            for factor, view in ((pentactions._map_factor(obj), f.up),
                                 (pentactions._pow_factor(obj), f.pow)):
                assert factor.dtype == np.intp, obj.name
                assert np.shares_memory(view, factor), obj.name
                with pytest.raises(ValueError):
                    factor[0, 0] = 1

    def test_only_kept_pentactions_are_built(self, monkeypatch, shear16):
        built = []

        def counting(*args):
            built.append(args)
            return rgwa.Pentaction(*args)

        monkeypatch.setattr(pentactions, "Pentaction", counting)
        obj = rgwa.make_object("built-count", 16, shear16.add, shear16.act)
        pents = rgwa.enumerate_pentactions(obj)
        assert len(built) == len(pents) == 16

    def test_budget_is_enforced(self):
        with pytest.raises(rgwa.BudgetExceededError):
            rgwa.enumerate_pentactions(rgwa.cyclic_trivial(3), budget=2)

    def test_refuses_before_the_additive_bijection_search(self, monkeypatch):
        # 8^3 = 512 pow rows already exceed the budget, whatever the maps;
        # neither the bijection array that the charge reads nor any walk runs
        def unreachable(*args):
            raise AssertionError("a walk ran before the budget check")

        monkeypatch.setattr(pentactions, "_additive_bijections_cached", unreachable)
        monkeypatch.setattr(core, "_generator_walk", unreachable)
        z2 = rgwa.cyclic_trivial(2)
        obj = rgwa.direct_sum(rgwa.direct_sum(z2, z2), z2, name="refuse-early")
        stage = re.escape(
            "needs at least 512 candidate visits (refused before the additive-bijection search)"
        )
        with pytest.raises(rgwa.BudgetExceededError, match=stage):
            rgwa.enumerate_pentactions(obj, budget=511)
        with pytest.raises(rgwa.BudgetExceededError, match=stage):
            rgwa.weak_stabilizer(obj, budget=511)

    def test_product_refusal_charges_the_whole_space(self):
        # 3 pow rows fit; 2 ups x 1 dotL x 3 rows = 6 candidates do not
        z3 = rgwa.cyclic_trivial(3)
        with pytest.raises(rgwa.BudgetExceededError) as err:
            rgwa.enumerate_pentactions(z3, budget=5)
        assert str(err.value) == (
            "pentaction enumeration over 'z3' needs 6 candidate visits, budget is 5"
        )
        assert len(rgwa.enumerate_pentactions(z3, budget=6)) == 6

    def test_bruteforce_refuses_order_four(self):
        with pytest.raises(rgwa.InputError):
            rgwa.enumerate_pentactions_bruteforce(rgwa.cyclic_trivial(4))

    def test_refused_on_non_reduced_objects(self):
        add, act = rgwa.s3_conjugation_tables()
        s3 = rgwa.make_object("s3conj", 6, add, act, require_reduced=False)
        with pytest.raises(rgwa.UnsupportedInputError):
            rgwa.enumerate_pentactions(s3)

    def test_caches_keep_equal_objects_with_other_names_apart(self):
        z2 = rgwa.cyclic_trivial(2)
        first = rgwa.make_object("cache-first", 2, z2.add, z2.act)
        rgwa.enumerate_pentactions(first)
        alias = rgwa.make_object("cache-alias", 2, z2.add, z2.act)
        pents = rgwa.enumerate_pentactions(alias)
        assert all(p.parent is alias for p in pents)
        assert {pentaction_to_json(p)["object"] for p in pents} == {"cache-alias"}
        # reloading the same document is still served from the cache
        reload = rgwa.make_object("cache-first", 2, z2.add, z2.act)
        assert all(p.parent is first for p in rgwa.enumerate_pentactions(reload))

    def test_a_walk_chunk_holds_the_cells_of_its_rows(self, monkeypatch, shear16):
        # a walked row of shear16 and its check at the 2 generators hold
        # 16 * 2 cells, so 64-cell chunks take 2 image rows each: of the
        # 16^2 rows of the additive bijections, and of the |St|^2 = 4^2 rows
        # of the pow factor
        calls = []
        walk = core._generator_walk
        monkeypatch.setattr(core, "_CHUNK_CELLS", 64)
        monkeypatch.setattr(core, "_generator_walk", lambda *a: calls.append(1) or walk(*a))
        _clear_object_caches()
        try:
            for build, count in ((rgwa.additive_bijections, 128), (pentactions._pow_factor, 8)):
                calls.clear()
                build(shear16)
                assert len(calls) == count, build.__name__
        finally:
            _clear_object_caches()

    def test_every_object_cache_is_listed_and_cleared(self):
        # the chunking fixture clears core._OBJECT_CACHES, so a cache left
        # off the list would hand default-chunk results to one-cell chunks
        caches = (core.generating_words, core._additive_bijections_cached,
                  pentactions._map_factor, pentactions._pow_factor,
                  pentactions._enumerate_pentactions_uncapped, pa._canonical_factors,
                  extensions._pow_rows, extensions._pow_products)
        assert set(caches) <= set(core._OBJECT_CACHES)
        z4 = rgwa.cyclic_trivial(4)
        words = core.generating_words(z4)
        assert core.generating_words(z4) is words
        _clear_object_caches()
        assert core.generating_words(z4) is not words


def direct_sum_of_cyclics(orders):
    obj = rgwa.cyclic_trivial(orders[0])
    for k in orders[1:]:
        obj = rgwa.direct_sum(obj, rgwa.cyclic_trivial(k))
    return obj


class TestLargerCarriers:
    @pytest.mark.parametrize(
        "orders,count",
        [((3, 3), 48), ((2, 2, 2), 168), ((4, 4), 96), ((2, 2, 4), 192), ((2, 2, 2, 2), 20160)],
        ids=["z3xz3", "z2xz2xz2", "z4xz4", "z2xz2xz4", "z2xz2xz2xz2"],
    )
    def test_additive_bijections_are_the_automorphism_group(self, orders, count):
        # the counts are |GL(2,3)|, |GL(3,2)|, |Aut(Z4+Z4)|, |Aut(Z2+Z2+Z4)|
        # and |GL(4,2)|
        bijections = rgwa.additive_bijections(direct_sum_of_cyclics(orders))
        assert len(bijections) == count
        assert all(a < b for a, b in zip(bijections, bijections[1:]))

    @pytest.mark.parametrize("orders,count", [((3, 3), 3888), ((2, 2, 2), 86016)],
                             ids=["z3xz3", "z2xz2xz2"])
    def test_enumerates_under_the_default_budget(self, orders, count):
        # kept out of standard_corpus; on z2xz2xz2 the product scan builds and
        # checks 168 x 512 candidates, the factored one 168 + 512
        obj = direct_sum_of_cyclics(orders)
        pents = rgwa.enumerate_pentactions(obj)
        assert len(pents) == count
        keys = [p.key() for p in pents]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for p in random.Random(0).sample(pents, 256):
            assert rgwa.check_pentaction(p).passed
