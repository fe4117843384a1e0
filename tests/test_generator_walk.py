"""The shared generator walk against the one-candidate-at-a-time loops it
replaced, in the default chunks and in chunks of one candidate."""

from functools import lru_cache
from itertools import product

import pytest

import rgwa
from conftest import (
    k4swap_object,
    negation_cyclic,
    negation_product,
    reference_additive_bijections,
    reference_enumerate_derived_actions,
    reference_extend_crossed_map,
    reference_map_families,
    relabeled,
    scan_passes,
    shear_object,
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
def _family_pairs():
    """The pairs of the pow-row pruning test, z2xz4 <- klein4 and the shear
    carrier against klein4 included."""
    corpus = _carriers()[:10]
    z4neg, k4swap, shear16 = _carriers()[10:13]
    bases = [o for o in corpus if o.order <= 8] + [z4neg, k4swap]
    acting = [o for o in corpus if o.order <= 4] + [z4neg, k4swap]
    pairs = [(A, B) for A in bases for B in acting]
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


def _clear_caches():
    for cached in (core._additive_bijections_cached, pentactions._pow_factor,
                   extensions._pow_rows, extensions._pow_products,
                   pentactions._pentaction_factors,
                   pentactions._enumerate_pentactions_uncapped):
        cached.cache_clear()


@pytest.fixture(params=["default-chunks", "one-candidate-chunks"])
def chunking(request, monkeypatch):
    # one cell per chunk: every chunk holds one candidate, and the chunks of
    # the additive-bijection search that keep no bijective row are empty
    if request.param == "one-candidate-chunks":
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
    _clear_caches()
    yield
    _clear_caches()


def test_additive_bijections_match_the_reference(chunking):
    for obj in _carriers():
        assert rgwa.additive_bijections(obj) == _reference_bijections(obj), obj.name


def test_map_families_match_the_reference(chunking):
    # order included: both list the families in product order of the images
    for A, B in _family_pairs():
        got = [tuple(map(tuple, up)) for up in extensions._up_families(A, B).tolist()]
        assert got == _reference_up_families(A, B), (A.name, B.name)


def test_pow_factor_matches_the_scalar_filter(chunking):
    for obj in _carriers()[10:]:
        assert list(pentactions._pow_factor(obj)) == _reference_pow_rows(obj), obj.name


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
