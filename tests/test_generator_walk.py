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
def _reference_families(A, B, contravariant):
    return reference_map_families(A, B, contravariant)


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
        for contravariant in (True, False):
            assert extensions._map_families(A, B, contravariant) == _reference_families(
                A, B, contravariant
            ), (A.name, B.name, contravariant)


def test_pow_factor_matches_the_scalar_filter(chunking):
    for obj in _carriers()[10:]:
        assert list(pentactions._pow_factor(obj)) == _reference_pow_rows(obj), obj.name


def test_derived_actions_match_the_reference(chunking):
    z2 = rgwa.cyclic_trivial(2)
    z4neg, k4swap = _carriers()[10:12]
    klein4 = _carriers()[8]
    for A, B in ((z4neg, k4swap), (klein4, z4neg), (k4swap, z2), (z4neg, z2)):
        pruned = rgwa.enumerate_derived_actions(A, B)
        assert [t.key() for t in pruned] == [
            t.key() for t in reference_enumerate_derived_actions(A, B)
        ], (A.name, B.name)
