"""The walked filters check each row at the additive generators only.

``core._passing`` takes a ``lead``: per axis letter, the leading values a row
is scanned at.  The closure lemma makes the verdict at the generators the
full one when the leading values at which a row holds are closed under +,
which each row owes to the axioms and to the rows before it.  These tests
compare the lead against the full scan on walked batches and on one-cell
corruptions of them, row prefix by row prefix, so a row moved ahead of a row
its closure needs shows up too; and they pin the rows the walked filters
drop because every walked candidate meets them by construction.
"""

from functools import lru_cache

import numpy as np
import pytest

import rgwa
from conftest import (
    _map_parts,
    k4swap_object,
    negation_cyclic,
    negation_product,
    reference_crossed_maps,
    relabeled,
    shear_object,
    twisted_object,
)
from rgwa import core, extensions, pentactions
from rgwa.core import _HOM_LAWS, _Hom, _generator_lead, _passing
from rgwa.corpus import s3_conjugation_tables


@lru_cache(maxsize=None)
def _carriers():
    corpus = tuple(rgwa.standard_corpus())
    z1, klein4, z2xz4 = corpus[0], corpus[8], corpus[9]
    # the action moves elements that are no generator on the last three, so
    # a row checked at the generators ahead of the rows its closure needs
    # keeps candidates that fail it
    z4neg, k4swap, z8neg = negation_cyclic(4), k4swap_object(), negation_cyclic(8)
    own = (z4neg, k4swap, z8neg, negation_product(4, 2), shear_object())
    again = tuple(relabeled(obj, seed) for seed in range(4)
                  for obj in (z1, klein4, z2xz4, z4neg, k4swap, z8neg))
    return corpus + own + again


_crossed_maps = lru_cache(maxsize=None)(reference_crossed_maps)


@lru_cache(maxsize=None)
def _up_pairs():
    corpus = rgwa.standard_corpus()
    z1, z2, z3, klein4 = corpus[0], corpus[1], corpus[2], corpus[8]
    acting = (z1, z2, z3, klein4, k4swap_object())
    bases = [o for o in _carriers() if o.order <= 4] + [corpus[9], relabeled(corpus[9], 1)]
    return tuple((A, B) for A in bases for B in acting)


def _corrupted(tables: np.ndarray, count: int, high: int, seed: int) -> np.ndarray:
    """The batch followed by ``count`` copies of its candidates with one
    cell each set to another value below ``high``."""
    rng = np.random.default_rng(seed)
    if not len(tables) or high < 2:
        return tables
    picks = tables[rng.integers(len(tables), size=count)].copy()
    flat = picks.reshape(count, -1)
    cells = rng.integers(flat.shape[1], size=count)
    shift = rng.integers(1, high, size=count)
    flat[np.arange(count), cells] = (flat[np.arange(count), cells] + shift) % high
    return np.concatenate([tables, picks])


def _assert_prefixes_match(t, rows, sizes, lead, what):
    for i in range(1, len(rows) + 1):
        full = _passing(t, rows[:i], sizes)
        assert _passing(t, rows[:i], sizes, lead).tolist() == full.tolist(), (
            what, [r[0] for r in rows[:i]])


def _map_batch(obj):
    """The walked map parts and one-cell corruptions of their four slots,
    as the slot arrays of a pentaction batch."""
    t = _map_parts(obj)
    slots = pentactions._SLOTS[:4]
    maps = np.stack([np.broadcast_to(getattr(t, s), t.up.shape) for s in slots], axis=1)
    maps = _corrupted(maps, 48, obj.order, seed=obj.order)
    return dict(zip(slots, maps.swapaxes(0, 1)))


def test_lead_matches_the_full_scan_on_walked_batches(chunking):
    for obj in _carriers():
        sizes, lead = {"A": obj.order}, {"A": _generator_lead(obj)}
        # every crossed map, not only those walked from St
        pows = _corrupted(_crossed_maps(obj), 48, obj.order, seed=obj.order)
        t = pentactions._tables(obj, pow=pows)
        _assert_prefixes_match(t, pentactions._POW_CONDITIONS, sizes, lead, (obj.name, "pow"))

        maps = _map_batch(obj)
        t = pentactions._tables(obj, **maps)
        _assert_prefixes_match(t, pentactions._MAP_CONDITIONS, sizes, lead, (obj.name, "map"))
        walked = _map_parts(obj)
        assert (_passing(walked, pentactions._MAP_WALKED, sizes, lead).tolist()
                == _passing(walked, pentactions._MAP_CONDITIONS, sizes).tolist()), obj.name

        # all nineteen rows over map parts paired with pow rows
        k = min(len(maps["up"]), len(pows))
        t = pentactions._tables(obj, **{s: v[:k] for s, v in maps.items()}, pow=pows[-k:])
        _assert_prefixes_match(t, pentactions._CONDITIONS, sizes, lead, (obj.name, "pentaction"))


def test_lead_matches_the_full_scan_on_walked_up_families(chunking):
    # the table checks of the family walk, 2B at B's generators b2 and a5,
    # give the verdicts of the full 2B and a5 scans of the up tables whose
    # columns they read, and the lead the verdict of 2B at every b2
    checks = dict(extensions._FAMILY_CHECKS)
    rows = [c for c in extensions._CONDITIONS if c[0] in checks]
    seen = set()
    for A, B in _up_pairs():
        maps = pentactions._canonical_factors(A).up
        # the kept families, then copies with one column moved within Maps(A)
        F = _corrupted(extensions._families(A, B), 32, len(maps), seed=A.order * B.order)
        U = maps[F]
        dot = np.broadcast_to(np.arange(A.order), (len(F), B.order, A.order))
        t = extensions._tables(A, B, dot=dot, up=U.swapaxes(1, 2))
        for row in rows:
            lead = ~core._violated(checks[row[0]](B._arrays, _generator_lead(B), U))
            full = ~core._violated(checks[row[0]](B._arrays, np.arange(B.order), U))
            want = _passing(t, [row], extensions._sizes(A, B))
            assert lead.tolist() == full.tolist() == want.tolist(), (A.name, B.name, row[0])
            seen.update((row[0], v) for v in want.tolist())
    assert seen == {(c, v) for c in checks for v in (False, True)}


def test_lead_matches_the_full_scan_on_the_morphism_laws(chunking):
    # every map B -> T, T a validated object: hom.add needs associativity,
    # hom.act hom.add and action.add
    corpus = rgwa.standard_corpus()
    z1, z2, klein4 = corpus[0], corpus[1], corpus[8]
    pairs = [(z1, klein4), (z2, klein4), (klein4, k4swap_object()),
             (negation_cyclic(4), negation_cyclic(4)), (relabeled(klein4, 2), klein4)]
    for B, T in pairs:
        maps = np.indices((T.order,) * B.order).reshape(B.order, -1).T
        t = _Hom(maps, B._arrays, T._arrays)
        _assert_prefixes_match(t, _HOM_LAWS, {"X": B.order}, {"X": _generator_lead(B)},
                               (B.name, T.name))
        assert _passing(t, _HOM_LAWS, {"X": B.order}).any(), (B.name, T.name)


def test_the_pow_factor_scans_p7_in_full_on_a_non_reduced_object():
    s3 = rgwa.make_object("s3", 6, *s3_conjugation_tables(), require_reduced=False)
    for obj in (s3, twisted_object()):
        sizes = {"A": obj.order}
        rows = np.concatenate(list(pentactions._pow_walk(obj)))
        t = pentactions._tables(obj, pow=rows)
        full = rows[_passing(t, pentactions._POW_CONDITIONS, sizes)]
        assert pentactions._pow_factor(obj).tolist() == sorted(full.tolist()), obj.name
    # on twisted16 the walk from St leaves St, and p10 rejects rows that p4
    # and p7 keep even when checked at the generators
    no_p10 = [c for c in pentactions._POW_CONDITIONS if c[0] != "p10"]
    assert _passing(t, no_p10, sizes, {"A": _generator_lead(obj)}).sum() > len(full) > 1


def test_the_map_factor_scans_p5_and_p9_at_the_generators_on_a_non_reduced_object():
    # the closure of p5 and p9 under + needs only the additivity of up and
    # action.add, so the generator lead holds on s3 too
    s3 = rgwa.make_object("s3", 6, *s3_conjugation_tables(), require_reduced=False)
    t = _map_parts(s3)
    full = t.up[_passing(t, pentactions._MAP_WALKED, {"A": 6})]
    assert pentactions._map_factor(s3).tolist() == sorted(full.tolist())


def test_dropped_rows_hold_on_every_walked_candidate():
    by_id = {c[0]: c for c in pentactions._MAP_CONDITIONS}
    dropped = [by_id[c] for c in pentactions._MAP_BY_CONSTRUCTION]
    for obj in _carriers():
        assert _passing(_map_parts(obj), dropped, {"A": obj.order}).all(), obj.name

    # every up family with up(., 0) = id and its columns in Maps(A) meets
    # 1A, zeroB, 4A and a2 by construction, 3B and a7 by membership, and a6
    # on an abelian A; the family walk checks the other up rows
    rows = extensions._UP_ONLY + extensions._DOT_UP
    held = ("1A", "zeroB", "4A", "a2", "3B", "a7", "a6")
    checked = [c[0] for c in extensions._FAMILY_CHECKS]
    assert sorted(held + tuple(checked)) == sorted(c[0] for c in rows)
    dropped = [c for c in rows if c[0] in held]
    rng = np.random.default_rng(0)
    for A, B in _up_pairs():
        assert A.is_abelian, A.name
        maps = pentactions._canonical_factors(A).up
        F = rng.integers(len(maps), size=(64, B.order))
        F[:, 0] = 0
        dot = np.broadcast_to(np.arange(A.order), (len(F), B.order, A.order))
        t = extensions._tables(A, B, dot=dot, up=maps[F].swapaxes(1, 2))
        assert _passing(t, dropped, extensions._sizes(A, B)).all(), (A.name, B.name)


def test_p5d_and_p9d_agree_with_p5_and_p9_on_every_walked_candidate():
    # on a walked map part upL = up^-1 and dotR = id, so the map factor
    # scans p5 and p9 alone
    by_id = {c[0]: c for c in pentactions._MAP_CONDITIONS}
    for obj in _carriers():
        t, sizes = _map_parts(obj), {"A": obj.order}
        for row, dual in (("p5", "p5d"), ("p9", "p9d")):
            want = _passing(t, [by_id[row]], sizes)
            assert _passing(t, [by_id[dual]], sizes).tolist() == want.tolist(), (obj.name, dual)


@pytest.mark.parametrize("A, B", [
    (negation_cyclic(4), rgwa.cyclic_trivial(3)),
    (k4swap_object(), rgwa.cyclic_trivial(1)),
    (rgwa.cyclic_trivial(3), shear_object()),
])
def test_every_mask_takes_an_index_array(A, B):
    # a mask given arange(lo, hi) returns what slice(lo, hi) gives, also when
    # one index is led (hi = lo + 1) and when it is as long as another axis
    rng = np.random.default_rng(A.order * B.order)
    na, nb = A.order, B.order
    t = pentactions._tables(A, **{s: rng.integers(na, size=(3, na)) for s in pentactions._SLOTS})
    cases = [(pentactions._CONDITIONS, t, {"A": na})]
    t = extensions._tables(A, B, dot=rng.integers(na, size=(3, nb, na)),
                           up=rng.integers(na, size=(3, na, nb)),
                           pow=rng.integers(na, size=(3, nb, na)))
    cases.append((extensions._CONDITIONS, t, extensions._sizes(A, B)))
    cases.append((_HOM_LAWS, _Hom(rng.integers(na, size=(3, nb)), B._arrays, A._arrays),
                  {"X": nb}))
    for rows, t, sizes in cases:
        for cid, axes, _, mask in rows:
            n = sizes[axes[0]]
            for lo, hi in {(0, n), (0, 1), (n - 1, n), (n // 2, n), (0, min(n, 3))}:
                want = mask(t, slice(lo, hi))
                got = mask(t, np.arange(lo, hi))
                assert got.shape == want.shape and (got == want).all(), (cid, lo, hi)
