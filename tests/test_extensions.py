"""Split extensions, the derived triple, and the 22-condition scan."""

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
    assert_batch_verdicts,
    assert_rows_read_only_their_tables,
    k4swap_object,
    negation_cyclic,
    negation_product,
    reference_check_derived_action,
    reference_enumerate_derived_actions,
    reference_map_families,
    relabeled,
    scan_passes,
    shear_object,
)
from rgwa import core, extensions
from rgwa.extensions import DerivedActionTriple


def trivial_triple(A, B):
    ident = tuple(range(A.order))
    return DerivedActionTriple(
        A, B,
        dot=tuple(ident for _ in range(B.order)),
        up=tuple((a,) * B.order for a in range(A.order)),
        pow=tuple((0,) * A.order for _ in range(B.order)),
    )


class TestSplitExtension:
    def test_direct_sum_extension_passes(self):
        z2 = rgwa.cyclic_trivial(2)
        ext = rgwa.direct_sum_extension(z2, z2)
        assert rgwa.check_split_extension(ext).passed

    def test_zero_section_fails(self):
        z2 = rgwa.cyclic_trivial(2)
        ext = rgwa.direct_sum_extension(z2, z2)
        bad = rgwa.SplitExtension(
            ext.A, ext.E, ext.B, ext.i, ext.p,
            rgwa.GwaMorphism(z2, ext.E, (0, 0)),
        )
        assert rgwa.check_split_extension(bad).conditions() == ("ext.section",)

    def test_collapsing_i_fails_injectivity(self):
        z2 = rgwa.cyclic_trivial(2)
        ext = rgwa.direct_sum_extension(z2, z2)
        bad = rgwa.SplitExtension(
            ext.A, ext.E, ext.B,
            rgwa.GwaMorphism(z2, ext.E, (0, 0)), ext.p, ext.j,
        )
        conditions = rgwa.check_split_extension(bad).conditions()
        assert "ext.inj" in conditions

    def test_non_kernel_image_fails(self):
        z2 = rgwa.cyclic_trivial(2)
        ext = rgwa.direct_sum_extension(z2, z2)
        bad = rgwa.SplitExtension(
            ext.A, ext.E, ext.B,
            rgwa.GwaMorphism(z2, ext.E, (0, 1)), ext.p, ext.j,
        )
        assert "ext.ker" in rgwa.check_split_extension(bad).conditions()

    def test_endpoint_mismatch_is_an_input_error(self):
        z2, z3 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        ext = rgwa.direct_sum_extension(z2, z2)
        with pytest.raises(rgwa.InputError):
            rgwa.check_split_extension(
                rgwa.SplitExtension(z3, ext.E, ext.B, ext.i, ext.p, ext.j)
            )


class TestActionFromSplitExtension:
    def test_direct_sum_gives_the_trivial_triple(self):
        z2 = rgwa.cyclic_trivial(2)
        triple = rgwa.action_from_split_extension(rgwa.direct_sum_extension(z2, z2))
        assert triple == trivial_triple(z2, z2)
        assert triple.report.passed

    def test_zero_acting_object(self):
        z3, z1 = rgwa.cyclic_trivial(3), rgwa.cyclic_trivial(1)
        triple = rgwa.action_from_split_extension(rgwa.direct_sum_extension(z3, z1))
        assert triple == trivial_triple(z3, z1)

    def test_corpus_extensions_satisfy_all_22_conditions(self, corpus):
        small = [o for o in corpus if o.order <= 4]
        for A in small:
            for B in small:
                triple = rgwa.action_from_split_extension(rgwa.direct_sum_extension(A, B))
                assert triple.report.passed, (A.name, B.name, triple.report.conditions())

    def test_invalid_extension_is_rejected(self):
        z2 = rgwa.cyclic_trivial(2)
        ext = rgwa.direct_sum_extension(z2, z2)
        bad = rgwa.SplitExtension(
            ext.A, ext.E, ext.B, ext.i, ext.p,
            rgwa.GwaMorphism(z2, ext.E, (0, 0)),
        )
        with pytest.raises(rgwa.ValidationError):
            rgwa.action_from_split_extension(bad)


class TestCheckDerivedAction:
    def test_trivial_triples_pass(self, corpus):
        for A in corpus[:4]:
            for B in corpus[:4]:
                assert rgwa.check_derived_action(trivial_triple(A, B)).passed

    def test_mutated_pow_fails_a9_with_the_known_witness(self):
        z2 = rgwa.cyclic_trivial(2)
        t = trivial_triple(z2, z2)
        mutated = DerivedActionTriple(z2, z2, t.dot, t.up, ((0, 0), (0, 1)))
        report = rgwa.check_derived_action(mutated)
        assert not report.passed
        by_id = dict((v.condition, v.witness) for v in report.violations)
        assert by_id["a9"] == (1, 1, 1)

    def test_every_reported_witness_is_a_genuine_violation(self):
        # mutate each table of the z2-on-z2 trivial triple in turn
        z2 = rgwa.cyclic_trivial(2)
        t = trivial_triple(z2, z2)
        mutants = [
            DerivedActionTriple(z2, z2, ((0, 1), (1, 0)), t.up, t.pow),
            DerivedActionTriple(z2, z2, t.dot, ((0, 1), (1, 1)), t.pow),
            DerivedActionTriple(z2, z2, t.dot, t.up, ((0, 1), (0, 0))),
        ]
        for mutant in mutants:
            report = rgwa.check_derived_action(mutant)
            assert not report.passed
            for violation in report.violations:
                assert all(0 <= w < 2 for w in violation.witness)

    def test_shape_errors(self):
        z2, z3 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        t = trivial_triple(z2, z3)
        with pytest.raises(rgwa.InputError):
            rgwa.check_derived_action(
                DerivedActionTriple(z2, z3, t.dot[:2], t.up, t.pow)
            )
        with pytest.raises(rgwa.InputError):
            rgwa.check_derived_action(
                DerivedActionTriple(z2, z3, t.dot, t.up, (t.pow[0], (0, 9), t.pow[2]))
            )


@lru_cache(maxsize=None)
def _scan_pairs():
    """(A, B) pairs, most of unequal orders, with the action-carrying
    carriers on either side, each with its enumerated derived actions plus
    the trivial triple as corruption bases.  The non-abelian s3 (validated without the
    reduced checks) is the only base on which a6 can fail."""
    z1, z2, z3 = (rgwa.cyclic_trivial(n) for n in (1, 2, 3))
    corpus = {o.name: o for o in rgwa.standard_corpus()}
    z4neg, k4swap, shear16 = negation_cyclic(4), k4swap_object(), shear_object()
    s3 = rgwa.make_object("s3", 6, *rgwa.s3_conjugation_tables(), require_reduced=False)
    pairs = [
        (z2, z3), (z3, z2), (z1, z4neg), (z4neg, z2), (z2, z4neg), (k4swap, z3),
        (z3, k4swap), (z4neg, k4swap), (k4swap, z2), (shear16, z2), (z2, shear16),
        (corpus["z2xz4"], corpus["klein4"]), (corpus["klein4"], z4neg), (s3, z2), (z2, s3),
    ]
    return [
        (A, B, [trivial_triple(A, B)] + rgwa.enumerate_derived_actions(A, B))
        for A, B in pairs
    ]


def _corrupted_triple(draw) -> DerivedActionTriple:
    """A derived action of some scan pair with up to four entries replaced;
    ``draw(k)`` picks an integer in 0..k-1."""
    A, B, bases = _scan_pairs()[draw(len(_scan_pairs()))]
    return _corrupted(A, B, bases[draw(len(bases))], draw)


def _corrupted(A, B, base, draw) -> DerivedActionTriple:
    tables = [[list(r) for r in table] for table in (base.dot, base.up, base.pow)]
    for _ in range(draw(5)):
        table = tables[draw(3)]
        row = table[draw(len(table))]
        row[draw(len(row))] = draw(A.order)
    return DerivedActionTriple(A, B, *(tuple(map(tuple, table)) for table in tables))


class TestScanAgainstReference:
    """The vectorized 22-condition scan reports exactly what the pure-Python
    loop nest reports, witnesses included."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_triples(self, data):
        t = _corrupted_triple(lambda k: data.draw(st.integers(0, k - 1)))
        assert rgwa.check_derived_action(t) == reference_check_derived_action(t)

    def test_witnesses_in_later_chunks(self, monkeypatch):
        # one leading index per chunk: every witness with a nonzero first
        # coordinate comes from a chunk after the first
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
        rng = random.Random(0)
        later, seen = 0, set()
        for _ in range(300):
            t = _corrupted_triple(rng.randrange)
            report = rgwa.check_derived_action(t)
            assert report == reference_check_derived_action(t)
            later += sum(v.witness[0] > 0 for v in report.violations)
            seen.update(report.conditions())
        assert later > 600
        assert len(seen) == 22


class TestRowFormat:
    """Every row of ``_CONDITIONS`` reads only the tables it names, each led
    by a candidate axis, and ``core._passing`` over a batch gives the
    verdicts of one ``core._violations`` scan per candidate."""

    def test_rows_read_only_their_tables(self):
        rng = random.Random(1)
        for _ in range(60):
            t = _corrupted_triple(rng.randrange)
            assert_rows_read_only_their_tables(
                partial(extensions._tables, t.A, t.B),
                {"dot": [t.dot], "up": [t.up], "pow": [t.pow]},
                extensions._CONDITIONS, extensions._sizes(t.A, t.B),
            )

    @pytest.mark.parametrize("chunk_cells", [None, 1], ids=["default-chunks", "one-cell-chunks"])
    def test_batch_verdicts_match_one_scan_per_candidate(self, monkeypatch, chunk_cells):
        if chunk_cells is not None:
            monkeypatch.setattr(core, "_CHUNK_CELLS", chunk_cells)
        rng = random.Random(2)
        passed = 0
        for A, B, bases in _scan_pairs():
            batch = [_corrupted(A, B, rng.choice(bases), rng.randrange) for _ in range(6)]
            tables = {name: np.asarray([getattr(t, name) for t in batch])
                      for name in ("dot", "up", "pow")}
            sizes = extensions._sizes(A, B)
            make = partial(extensions._tables, A, B)
            assert_batch_verdicts(make, tables, extensions._CONDITIONS, sizes)
            empty = make(**{name: table[:0] for name, table in tables.items()})
            assert core._passing(empty, extensions._CONDITIONS, sizes).shape == (0,)
            passed += sum(rgwa.check_derived_action(t).passed for t in batch)
        assert passed > 0


class TestTwistedExtension:
    """A split extension whose middle object has a nontrivial action, so the
    induced triple is not the trivial one."""

    @pytest.fixture()
    def twisted(self, z4neg):
        z2 = rgwa.cyclic_trivial(2)
        # E = Z/4 (+) Z/2 where an exponent negates the first coordinate
        # when its own coordinates have odd total parity
        def idx(x, y):
            return x * 2 + y

        add = [[0] * 8 for _ in range(8)]
        act = [[0] * 8 for _ in range(8)]
        for x in range(4):
            for y in range(2):
                for x2 in range(4):
                    for y2 in range(2):
                        add[idx(x, y)][idx(x2, y2)] = idx((x + x2) % 4, (y + y2) % 2)
                        first = x if (x2 + y2) % 2 == 0 else (-x) % 4
                        act[idx(x, y)][idx(x2, y2)] = idx(first, y)
        E = rgwa.make_object("twisted_e", 8, add, act)
        return rgwa.SplitExtension(
            z4neg, E, z2,
            i=rgwa.GwaMorphism(z4neg, E, tuple(idx(a, 0) for a in range(4))),
            p=rgwa.GwaMorphism(E, z2, tuple(e % 2 for e in range(8))),
            j=rgwa.GwaMorphism(z2, E, (0, 1)),
        )

    def test_structure_checks_pass(self, twisted):
        assert rgwa.check_split_extension(twisted).passed

    def test_induced_triple_negates_via_up(self, twisted, z4neg):
        triple = rgwa.action_from_split_extension(twisted)
        assert triple.report.passed
        assert triple.dot == (tuple(range(4)),) * 2
        assert triple.up == tuple((a, (-a) % 4) for a in range(4))
        assert triple.pow == ((0, 0, 0, 0),) * 2

    def test_induced_triple_is_found_by_the_enumerator(self, twisted, z4neg):
        triple = rgwa.action_from_split_extension(twisted)
        z2 = rgwa.cyclic_trivial(2)
        keys = [t.key() for t in rgwa.enumerate_derived_actions(z4neg, z2)]
        assert triple.key() in keys

    def test_induced_triple_factors_through_pa(self, twisted, z4neg):
        triple = rgwa.action_from_split_extension(twisted)
        z2 = rgwa.cyclic_trivial(2)
        pa = rgwa.build_pa_object(z4neg)
        phi = rgwa.represent(z4neg, z2, triple, pa=pa)
        assert rgwa.is_morphism(phi).passed
        assert pa.elements[phi.map[1]].up == (0, 3, 2, 1)
        assert rgwa.verify_uniqueness(z4neg, z2, triple, phi, pa=pa).passed


class TestShearExtension:
    """Extension over the shear carrier whose section twists by the square
    of the shear automorphism; exercises order-4 exponent arithmetic."""

    @pytest.fixture()
    def shear_ext(self, shear16):
        z2 = rgwa.cyclic_trivial(2)

        def idx(v, t):
            return v * 2 + t

        n = 32
        add = [[0] * n for _ in range(n)]
        act = [[0] * n for _ in range(n)]
        shear_pow = [
            [4 * (v // 4) + ((k * (v // 4) + v % 4) % 4) for v in range(16)]
            for k in range(4)
        ]
        for v in range(16):
            for t in range(2):
                for v2 in range(16):
                    for t2 in range(2):
                        add[idx(v, t)][idx(v2, t2)] = idx(shear16.add[v][v2], (t + t2) % 2)
                        k = (v2 // 4 + 2 * t2) % 4
                        act[idx(v, t)][idx(v2, t2)] = idx(shear_pow[k][v], t)
        E = rgwa.make_object("shear16_x_z2_twisted", n, add, act)
        return rgwa.SplitExtension(
            shear16, E, z2,
            i=rgwa.GwaMorphism(shear16, E, tuple(idx(v, 0) for v in range(16))),
            p=rgwa.GwaMorphism(E, z2, tuple(e % 2 for e in range(n))),
            j=rgwa.GwaMorphism(z2, E, (0, 1)),
        )

    def test_checks_pass_and_up_is_the_shear_square(self, shear_ext, shear16):
        assert rgwa.check_split_extension(shear_ext).passed
        triple = rgwa.action_from_split_extension(shear_ext)
        assert triple.report.passed
        sigma2 = tuple(4 * (v // 4) + ((2 * (v // 4) + v % 4) % 4) for v in range(16))
        assert tuple(triple.up[a][1] for a in range(16)) == sigma2
        assert triple.pow == ((0,) * 16, (0,) * 16)

    def test_triple_is_enumerated_and_factors(self, shear_ext, shear16):
        triple = rgwa.action_from_split_extension(shear_ext)
        z2 = rgwa.cyclic_trivial(2)
        keys = [t.key() for t in rgwa.enumerate_derived_actions(shear16, z2)]
        assert triple.key() in keys
        pa = rgwa.build_pa_object(shear16)
        phi = rgwa.represent(shear16, z2, triple, pa=pa)
        assert rgwa.is_morphism(phi).passed
        assert rgwa.verify_uniqueness(shear16, z2, triple, phi, pa=pa).passed


class TestEnumeration:
    def test_zero_base_forces_one_triple(self, corpus):
        z1 = rgwa.cyclic_trivial(1)
        for B in corpus[:5]:
            triples = rgwa.enumerate_derived_actions(z1, B)
            assert len(triples) == 1
            assert triples[0].report.passed

    def test_z2_on_z2_count_is_one(self):
        # regression fixture established by the brute-force oracle
        z2 = rgwa.cyclic_trivial(2)
        triples = rgwa.enumerate_derived_actions(z2, z2)
        assert len(triples) == 1
        assert triples[0] == trivial_triple(z2, z2)

    @pytest.mark.parametrize(
        "na,nb", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]
    )
    def test_oracle_equivalence(self, na, nb):
        A, B = rgwa.cyclic_trivial(na), rgwa.cyclic_trivial(nb)
        pruned = rgwa.enumerate_derived_actions(A, B)
        brute = rgwa.enumerate_derived_actions_bruteforce(A, B)
        assert [t.key() for t in pruned] == [t.key() for t in brute]
        for t in pruned + brute:
            assert t.report == rgwa.check_derived_action(t)

    def test_oracle_equivalence_nontrivial_base(self, z4neg):
        z1 = rgwa.cyclic_trivial(1)
        pruned = rgwa.enumerate_derived_actions(z1, z4neg)
        brute = rgwa.enumerate_derived_actions_bruteforce(z1, z4neg)
        assert [t.key() for t in pruned] == [t.key() for t in brute]

    def test_pow_row_pruning_matches_the_unpruned_loop(self, corpus, z4neg, k4swap, shear16):
        # z2xz4 <- klein4 is left out: its unpruned loop takes about 2 s
        bases = [o for o in corpus if o.order <= 8] + [z4neg, k4swap]
        acting = [o for o in corpus if o.order <= 4] + [z4neg, k4swap]
        pairs = [(A, B) for A in bases for B in acting
                 if (A.name, B.name) != ("z2xz4", "klein4")]
        pairs += [(shear16, B) for B in acting if B.order <= 2]
        for A, B in pairs:
            pruned = rgwa.enumerate_derived_actions(A, B)
            unpruned = reference_enumerate_derived_actions(A, B)
            assert [t.key() for t in pruned] == [t.key() for t in unpruned], (A.name, B.name)
            for t in pruned:
                assert t.report == rgwa.check_derived_action(t)

    def test_verified_triples_satisfy_unit_laws(self):
        for na, nb in [(2, 2), (2, 3), (3, 2), (4, 2)]:
            A, B = rgwa.cyclic_trivial(na), rgwa.cyclic_trivial(nb)
            for t in rgwa.enumerate_derived_actions(A, B):
                assert all(t.up[a][0] == a for a in range(na))
                assert all(t.up[0][b] == 0 for b in range(nb))
                assert all(t.pow[b][0] == 0 for b in range(nb))
                assert all(t.pow[0][a] == 0 for a in range(na))

    def test_output_is_sorted_canonically(self):
        A, B = rgwa.cyclic_trivial(4), rgwa.cyclic_trivial(4)
        keys = [t.key() for t in rgwa.enumerate_derived_actions(A, B)]
        assert keys == sorted(keys)

    def test_budget_is_enforced_with_progress_note(self):
        A, B = rgwa.cyclic_trivial(4), rgwa.cyclic_trivial(4)
        with pytest.raises(rgwa.BudgetExceededError) as exc:
            rgwa.enumerate_derived_actions(A, B, budget=1)
        assert "candidate" in str(exc.value)

    def test_refuses_before_the_additive_bijection_search(self, monkeypatch):
        # z2^4 has four generators, so its walks visit 16^4 generator images
        def unreachable(*args, **kwargs):
            raise AssertionError("a walk over A ran before the budget check")

        monkeypatch.setattr(extensions, "additive_bijections", unreachable)
        monkeypatch.setattr(extensions, "_pow_factor", unreachable)
        z2 = rgwa.cyclic_trivial(2)
        z2_4 = rgwa.direct_sum(rgwa.direct_sum(z2, z2), rgwa.direct_sum(z2, z2))
        stage = re.escape(f"needs at least {16 ** 4} candidate visits "
                          f"(refused before the additive-bijection search)")
        for budget in (1, 16 ** 4 - 1):
            with pytest.raises(rgwa.BudgetExceededError, match=stage):
                rgwa.enumerate_derived_actions(z2_4, rgwa.cyclic_trivial(1), budget=budget)
        with pytest.raises(AssertionError, match="ran before the budget check"):
            rgwa.enumerate_derived_actions(z2_4, rgwa.cyclic_trivial(1), budget=16 ** 4)

    def test_refuses_before_the_family_search(self, monkeypatch):
        # z2^4 has |GL(4,2)| = 20160 additive bijections, so each family kind
        # of klein4 (two generators) on it has 20160^2 candidates
        def unreachable(*args, **kwargs):
            raise AssertionError("_up_families ran before the budget check")

        monkeypatch.setattr(extensions, "_up_families", unreachable)
        z2 = rgwa.cyclic_trivial(2)
        z2_4 = rgwa.direct_sum(rgwa.direct_sum(z2, z2), rgwa.direct_sum(z2, z2))
        klein4 = rgwa.direct_sum(z2, z2, name="klein4")
        stage = re.escape(
            f"needs at least {20160 ** 2} candidate visits (refused before the family search)"
        )
        with pytest.raises(rgwa.BudgetExceededError, match=stage):
            rgwa.enumerate_derived_actions(z2_4, klein4)

    def test_family_refusal_charges_the_family_count(self, monkeypatch):
        # klein4 has 6 additive bijections and two generators: 36 families
        monkeypatch.setattr(extensions, "_up_families",
                            lambda A, B: np.zeros((0, A.order, B.order), dtype=np.intp))
        z2 = rgwa.cyclic_trivial(2)
        klein4 = rgwa.direct_sum(z2, z2, name="klein4")
        with pytest.raises(rgwa.BudgetExceededError, match="at least 36 candidate"):
            rgwa.enumerate_derived_actions(klein4, klein4, budget=35)
        assert rgwa.enumerate_derived_actions(klein4, klein4, budget=36) == []

    def test_walk_is_charged_what_it_visits(self, shear16):
        # 4 kept ups x 4^2 rows: admitted at the default budget, where the
        # product |ups| |dots| n^(|gensA| |gensB|) charge refused it
        klein4 = rgwa.direct_sum(rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(2), name="klein4")
        triples = rgwa.enumerate_derived_actions(shear16, klein4)
        assert len(triples) == 16
        assert triples == rgwa.enumerate_derived_actions(shear16, klein4, budget=10**12)

    def test_walk_charge_counts_candidates_and_the_2a_table(self):
        # z8neg <- klein4: 16 kept ups and |W'| = 4, so the walk visits
        # 16 * 4^2 candidates and the 2A table has 4^2 entries; the family
        # check charges 4^2 = 16 before
        klein4 = rgwa.direct_sum(rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(2), name="klein4")
        z8neg = negation_cyclic(8)
        with pytest.raises(rgwa.BudgetExceededError, match=r"needs 272 candidate visits"):
            rgwa.enumerate_derived_actions(z8neg, klein4, budget=271)
        assert len(rgwa.enumerate_derived_actions(z8neg, klein4, budget=272)) == 64

    def test_bruteforce_cap(self):
        A, B = rgwa.cyclic_trivial(3), rgwa.cyclic_trivial(2)
        with pytest.raises(rgwa.InputError):
            rgwa.enumerate_derived_actions_bruteforce(A, B)


class TestDotMapsAreTheIdentity:
    """The lemma of the ``extensions`` docstring: 3A makes every dot map of
    a derived action the identity, and p3 and p3d every dotL and dotR of a
    pentaction.  The enumerators build only identity dots, so these searches
    run without that restriction."""

    @staticmethod
    def _carriers(corpus, z4neg, k4swap):
        bases = list(corpus) + [z4neg, k4swap, negation_product(2, 8)]
        return [relabeled(A, seed) for A in bases for seed in range(4)]

    def test_the_covariant_walk_keeps_only_the_identity(self, corpus, z4neg, k4swap):
        acting = [B for B in corpus if B.order <= 4]
        for A in self._carriers(corpus, z4neg, k4swap):
            for B in acting:
                sizes = extensions._sizes(A, B)
                dots = [dot for dot in reference_map_families(A, B, contravariant=False)
                        if scan_passes(extensions._tables(A, B, dot=[dot]),
                                       extensions._DOT_ONLY, sizes)]
                assert dots == [tuple(tuple(range(A.order)) for _ in range(B.order))], (
                    A.name, B.name)

    def test_every_map_part_has_identity_dots(self, corpus, z4neg, k4swap):
        # every additive bijection as dotL, dotR its inverse, with every up
        from rgwa.core import _passing
        from rgwa.pentactions import _MAP_CONDITIONS, _SLOTS, _pentaction_factors, _tables

        for A in self._carriers(corpus, z4neg, k4swap):
            bij = np.asarray(rgwa.additive_bijections(A), dtype=np.intp)
            d, u = (x.ravel() for x in np.indices((len(bij), len(bij))))
            maps = [bij[d], np.argsort(bij[d], axis=1), bij[u], np.argsort(bij[u], axis=1)]
            keep = _passing(_tables(A, **dict(zip(_SLOTS, maps))), _MAP_CONDITIONS,
                            {"A": A.order})
            kept = sorted(tuple(map(tuple, m)) for m in zip(*(m[keep].tolist() for m in maps)))
            identity = tuple(range(A.order))
            assert kept and all(m[0] == m[1] == identity for m in kept), A.name
            assert all(m[3] == tuple(np.argsort(m[2]).tolist()) for m in kept), A.name
            assert tuple(m[2] for m in kept) == _pentaction_factors(A)[0], A.name


def _check(name):
    checks = dict(extensions._POW_INDEX_CHECKS)
    assert name in checks, f"no pow index check for {name}"
    return checks[name]


class TestPowIndexChecks:
    """The pow stage of the enumerator checks walked candidates by their row
    indices J in W' against tables built once per call; each check must be
    the conditions it names."""

    def test_checks_name_the_seven_pow_reading_conditions(self):
        names = [c for name, _ in extensions._POW_INDEX_CHECKS for c in name.split()]
        assert sorted(names) == sorted(c[0] for c in extensions._POW_READING)

    @staticmethod
    def _index(A, B, batch):
        return extensions._pow_index(A, B, batch.ups)

    def _pairs(self, z4neg, k4swap):
        corpus = {o.name: o for o in rgwa.standard_corpus()}
        return [(z4neg, corpus["z3"]), (z4neg, k4swap), (corpus["z2xz4"], corpus["klein4"]),
                (corpus["klein4"], corpus["klein4"]), (k4swap, corpus["z4"]),
                (negation_cyclic(6), corpus["z4"])]

    def test_index_checks_are_their_conditions(self, z4neg, k4swap):
        # every enumerated triple, and each with one row index replaced at
        # random: the candidates keep every row in W', so each check after
        # the first gives the verdict of its conditions' masks
        from rgwa.core import _passing, _violated

        rng = np.random.default_rng(0)
        seen = set()
        for A, B in self._pairs(z4neg, k4swap):
            batch = extensions._derived_action_batch(A, B, extensions.DEFAULT_BUDGET)
            k, nb = len(batch.pair), B.order
            p, J = np.concatenate([batch.pair] * 2), np.concatenate([batch.J] * 2)
            J[np.arange(k, 2 * k), rng.integers(0, nb, k)] = rng.integers(0, len(batch.rows), k)
            x = self._index(A, B, batch)
            dots = np.broadcast_to(np.arange(A.order), (len(p), nb, A.order))
            t = extensions._tables(A, B, dots, batch.ups[p], batch.rows[J])
            for name in ("a9", "2A", "4B", "a10"):
                rows = [c for c in extensions._CONDITIONS if c[0] == name]
                got = ~_violated(_check(name)(x, p, J))
                assert got.tolist() == _passing(t, rows, extensions._sizes(A, B)).tolist(), (
                    A.name, B.name, name)
                seen.update((name, bool(v)) for v in got)
        assert seen == {(name, v) for name in ("a9", "2A", "4B", "a10") for v in (False, True)}

    def test_w_prime_is_the_pow_factor_passing_the_pow_only_conditions(self, z4neg, k4swap):
        # each row read as the one pow row of an acting object of order 1,
        # where 1B, a4 and a8 are p4, p7 and p10 and a9 is r o r = 0
        from rgwa.core import _passing
        from rgwa.pentactions import _pow_factor

        point = rgwa.FiniteGwaObject("0", 1, ((0,),), ((0,),))
        rows = [c for c in extensions._CONDITIONS if c[2] == ("pow",)]
        assert [c[0] for c in rows] == ["1B", "a4", "a8", "a9"]
        seen = set()
        for A in [p[0] for p in self._pairs(z4neg, k4swap)] + [negation_cyclic(8)]:
            pool = np.asarray(_pow_factor(A), dtype=np.intp)
            keep = _passing(extensions._tables(A, point, pow=pool[:, None]), rows,
                            extensions._sizes(A, point))
            assert extensions._pow_rows(A)[0].tolist() == pool[keep].tolist(), A.name
            seen.add(bool(keep.all()))
        assert seen == {False, True}

    def test_rows_outside_w_prime_fail_the_first_check(self, z4neg, k4swap):
        # pow tables drawn from A's crossed maps and from random rows: the
        # first check passes exactly when every row passes 1B, a4 and a8 and
        # squares to 0 (a9 at b = b2)
        from rgwa.core import _passing, _violated
        from rgwa.pentactions import _pow_factor

        rng = np.random.default_rng(1)
        seen = set()
        for A, B in self._pairs(z4neg, k4swap):
            batch = extensions._derived_action_batch(A, B, extensions.DEFAULT_BUDGET)
            pool = np.concatenate([np.asarray(_pow_factor(A), dtype=np.intp),
                                   rng.integers(0, A.order, (4, A.order))])
            pw = pool[rng.integers(0, len(pool), (200, B.order))]
            J = self._index(A, B, batch).find(pw)
            got = ~_violated(_check("1B a4 a8")(None, None, J))
            rows = [c for c in extensions._CONDITIONS if c[0] in ("1B", "a4", "a8")]
            squares = (np.take_along_axis(pw, pw, axis=2) == 0).all(axis=(1, 2))
            want = _passing(extensions._tables(A, B, pow=pw), rows, extensions._sizes(A, B))
            assert got.tolist() == (want & squares).tolist(), (A.name, B.name)
            seen.update(got.tolist())
        assert seen == {False, True}

    @pytest.mark.parametrize("dropped,pair", [
        ("2A", ("z4neg", "z3")), ("4B", ("z4neg", "k4swap")), ("a10", ("z2xz4", "z2")),
    ])
    def test_dropping_a_check_admits_its_violations(self, monkeypatch, z4neg, k4swap,
                                                    dropped, pair):
        # on walked candidates 1B, a4, a8 and a9 are never the only failing
        # conditions: a walked row outside W' also breaks 2A at (0, b), and
        # no tested pair has a candidate failing a9 alone
        objs = {o.name: o for o in rgwa.standard_corpus() + [z4neg, k4swap]}
        A, B = (objs[name] for name in pair)
        monkeypatch.setattr(extensions, "_POW_INDEX_CHECKS", tuple(
            c for c in extensions._POW_INDEX_CHECKS if c[0] != dropped))
        failing = {c for t in rgwa.enumerate_derived_actions(A, B)
                   for c in rgwa.check_derived_action(replace(t, report=None)).conditions()}
        assert failing == {dropped}
