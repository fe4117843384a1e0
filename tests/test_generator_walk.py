"""The shared generator walk against the one-candidate-at-a-time loops it
replaced, in the default chunks and in chunks of one candidate; and its
order lemma: the rows it keeps come out sorted, with no sort after it."""

from functools import lru_cache
from itertools import product

import numpy as np

import rgwa
from conftest import (
    PERFBENCH,
    k4swap_object,
    negation_cyclic,
    negation_product,
    perfbench_object,
    reference_additive_bijections,
    reference_enumerate_derived_actions,
    reference_extend_crossed_map,
    reference_map_families,
    reference_pow_factor,
    relabeled,
    s3_object,
    scan_passes,
    shear_object,
    twisted_object,
)
from rgwa import core, extensions, pentactions
from rgwa.core import generating_words


@lru_cache(maxsize=None)
def _carriers():
    return tuple(rgwa.standard_corpus()) + (
        negation_cyclic(4), k4swap_object(), shear_object(),
        negation_product(4, 4), negation_product(8, 2),
    )


@lru_cache(maxsize=None)
def _s3():
    # not reduced and not abelian, so a6 fails for every family when |B| > 1
    return rgwa.make_object("s3", 6, *rgwa.s3_conjugation_tables(), require_reduced=False)


@lru_cache(maxsize=None)
def _family_pairs():
    """The pairs of the pow-row pruning test, z2xz4 <- klein4, the shear
    carrier against klein4, and the non-reduced s3 on either side included."""
    corpus = _carriers()[:10]
    z4neg, k4swap, shear16 = _carriers()[10:13]
    z1, z2, klein4 = corpus[0], corpus[1], corpus[8]
    bases = [o for o in corpus if o.order <= 8] + [z4neg, k4swap]
    acting = [o for o in corpus if o.order <= 4] + [z4neg, k4swap]
    pairs = [(A, B) for A in bases for B in acting]
    pairs += [(_s3(), z1), (_s3(), z2), (_s3(), klein4), (z2, _s3())]
    return tuple(pairs + [(shear16, B) for B in acting if B.order <= 2 or B.name == "klein4"])


@lru_cache(maxsize=None)
def _reference_bijections(obj):
    return reference_additive_bijections(obj)


@lru_cache(maxsize=None)
def _reference_up_families(A, B):
    """The reference up families that pass every up-only condition and,
    read with identity dot tables, 4A, 3B and a2."""
    ident = tuple(tuple(range(A.order)) for _ in range(B.order))
    rows, sizes = extensions._UP_ONLY + extensions._DOT_UP, extensions._sizes(A, B)
    return [up for up in reference_map_families(A, B, contravariant=True)
            if scan_passes(extensions._tables(A, B, dot=[ident], up=[up]), rows, sizes)]


@lru_cache(maxsize=None)
def _reference_pow_rows(obj):
    """Every crossed map kept when the scalar checker finds no p4, p7 or p10
    violation, sorted."""
    gens, steps = generating_words(obj)
    zero = rgwa.zero_pentaction(obj)
    rows = []
    for images in product(range(obj.order), repeat=len(gens)):
        row = reference_extend_crossed_map(obj, gens, steps, images)
        report = rgwa.check_pentaction(
            rgwa.Pentaction(obj, zero.dotL, zero.dotR, zero.up, zero.upL, row)
        )
        if not {"p4", "p7", "p10"} & set(report.conditions()):
            rows.append(row)
    return sorted(rows)


def test_additive_bijections_match_the_reference(chunking):
    for obj in _carriers():
        assert rgwa.additive_bijections(obj) == _reference_bijections(obj), obj.name


def test_map_families_match_the_reference(chunking):
    # order included: both list the families in product order of the
    # images, since Maps(A) is a sorted subset of the additive bijections
    seen = set()
    for A, B in _family_pairs():
        ups = pentactions._canonical_factors(A).up[extensions._families(A, B)].swapaxes(1, 2)
        got = [tuple(map(tuple, up)) for up in ups.tolist()]
        assert got == _reference_up_families(A, B), (A.name, B.name)
        seen.add(bool(got))
    assert seen == {False, True}


def test_pow_factor_matches_the_scalar_filter(chunking):
    for obj in _carriers()[10:]:
        want = [list(row) for row in _reference_pow_rows(obj)]
        assert pentactions._pow_factor(obj).tolist() == want, obj.name


@lru_cache(maxsize=None)
def _pow_subjects():
    """The benchmark carriers at seeds 0 and 1, the non-reduced
    s3_conjugation included, shear_{k^2} for k = 2..8 and the non-reduced
    twisted16, whose pow walk leaves its stabilizer."""
    carriers = tuple(perfbench_object(name, seed) for seed in (0, 1)
                     for name in PERFBENCH["CARRIERS"])
    return carriers + tuple(shear_object(k) for k in range(2, 9)) + (twisted_object(),)


_reference_pow_factor = lru_cache(maxsize=None)(reference_pow_factor)


def test_pow_factor_matches_the_unrestricted_walk(chunking):
    # walked from St and, on a reduced carrier, scanned for p4 and p7 at the
    # generators only, against every image row and the full three-row scan
    for obj in _pow_subjects():
        assert pentactions._pow_factor(obj).tolist() == _reference_pow_factor(obj), obj.name


def test_the_pow_walk_draws_its_images_from_the_stabilizer(corpus, shear16):
    # |St|^|gens| image rows: St is {0} x Z/4 on shear16 and the 8 elements
    # with an even first coordinate on neg4x4; the whole carrier under the
    # trivial action of z2xz4
    walked = {obj.name: sum(map(len, pentactions._pow_walk(obj)))
              for obj in (shear16, negation_product(4, 4), corpus[9])}
    assert walked == {"shear16": 16, "neg4x4": 64, "z2xz4": 64}


def test_derived_actions_match_the_reference(chunking):
    # the batch's columns and the public list, both in the reference order,
    # on relabeled carriers and with B = A too
    z2, z3, klein4, z2xz4 = (_carriers()[i] for i in (1, 2, 8, 9))
    z4neg, k4swap = _carriers()[10:12]
    z4neg1, k4swap2 = relabeled(z4neg, 1), relabeled(k4swap, 2)
    pairs = [(z4neg, k4swap), (klein4, z4neg), (k4swap, z2), (z4neg, z2),
             (z4neg1, k4swap), (k4swap2, z2), (relabeled(klein4, 3), z4neg1),
             (relabeled(z2xz4, 5), z2)]
    pairs += [(A, A) for A in (z3, z4neg, k4swap, klein4, z4neg1, k4swap2)]
    # the non-reduced s3: one derived action of z1, none of z2 or klein4 (a6)
    pairs += [(_s3(), B) for B in (_carriers()[0], z2, klein4)] + [(z2, _s3())]
    # pow rows with entries of order 3, walked from two generators
    pairs += [(rgwa.cyclic_trivial(9), rgwa.direct_sum(z3, z3))]
    for A, B in pairs:
        want = reference_enumerate_derived_actions(A, B)
        batch = extensions._derived_action_batch(A, B, extensions.DEFAULT_BUDGET)
        columns = {"up": batch.ups[batch.pair], "pow": batch.rows[batch.J]}
        for name, column in columns.items():
            got = [tuple(map(tuple, x)) for x in column.tolist()]
            assert got == [getattr(t, name) for t in want], (A.name, B.name, name)
        assert {t.dot for t in want} <= {(tuple(range(A.order)),) * B.order}, (A.name, B.name)
        assert rgwa.enumerate_derived_actions(A, B) == want, (A.name, B.name)
    counts = [len(rgwa.enumerate_derived_actions(_s3(), B)) for B in (_carriers()[0], z2, klein4)]
    assert counts == [1, 0, 0]


def _in_lexsort_order(rows: np.ndarray) -> bool:
    return (np.lexsort(rows.T[::-1]) == np.arange(len(rows))).all()


@lru_cache(maxsize=None)
def _order_subjects():
    """The reduced benchmark carriers at seeds 0-3, shear_{k^2} for
    k = 2..5, z8neg, neg4x2, k4swap, and the non-reduced twisted16 and s3."""
    carriers = tuple(perfbench_object(name, seed) for seed in range(4)
                     for name in PERFBENCH["CARRIERS"] if name != "s3_conjugation")
    return carriers + tuple(shear_object(k) for k in range(2, 6)) + (
        negation_cyclic(8), negation_product(4, 2), k4swap_object(), twisted_object(), s3_object())


@lru_cache(maxsize=None)
def _order_pairs():
    """The benchmark carriers at seeds 0 and 1, shear9 and z6neg, each acted
    on by z1-z4, klein4, k4swap and z4neg."""
    corpus = rgwa.standard_corpus()
    acting = (*corpus[:4], corpus[8], k4swap_object(), negation_cyclic(4))
    bases = tuple(perfbench_object(name, seed) for seed in (0, 1)
                  for name in PERFBENCH["CARRIERS"]) + (shear_object(3), negation_cyclic(6))
    return tuple((A, B) for A in bases for B in acting)


def test_walked_factors_come_out_sorted(chunking):
    # the order lemma of core._walk: no sort follows the two walks of A
    for obj in _order_subjects():
        assert _in_lexsort_order(core._additive_bijections_cached(obj)), obj.name
        assert _in_lexsort_order(pentactions._pow_factor(obj)), obj.name


def test_the_pow_rows_of_each_family_come_out_sorted(chunking):
    # the batch is ordered by family alone; the J rows of each family keep
    # the walk's order, which is ascending
    kept = 0
    for A, B in _order_pairs():
        batch = extensions._derived_action_batch(A, B, extensions.DEFAULT_BUDGET)
        assert _in_lexsort_order(np.column_stack([batch.pair, batch.J])), (A.name, B.name)
        kept += len(batch.pair)
    assert kept > 0


def test_the_order_needs_the_greedy_generators(monkeypatch, corpus):
    # walked with klein4's two generators swapped, the same bijections come
    # out ordered by their image at 2 first, which is not table order
    klein4 = corpus[8]
    want = core._additive_bijections_cached(klein4).tolist()
    gens, steps = generating_words(klein4)
    swapped = (gens[::-1], tuple((y, x, 1 - gi, sign) for y, x, gi, sign in steps))
    monkeypatch.setattr(core, "generating_words", lambda obj: swapped)
    rows = core._additive_bijections_cached.__wrapped__(klein4)
    assert sorted(rows.tolist()) == want
    assert not _in_lexsort_order(rows)
