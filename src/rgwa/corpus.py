"""Standard object corpus: cyclic and product carriers with trivial action,
plus conjugation tables as a negative-test generator."""

from __future__ import annotations

from functools import cache
from itertools import permutations

import numpy as np

from .core import (
    FiniteGwaObject,
    Table,
    _check_table,
    _freeze_table,
    _inverses,
    _require_abelian_trivial,
    make_object,
)
from .errors import InputError


def cyclic_trivial(n: int) -> FiniteGwaObject:
    """Z/n with trivial action; passes the reduced checks for every n >= 1."""
    if n < 1:
        raise InputError(f"cyclic order must be positive, got {n}")
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    act = [[x for _ in range(n)] for x in range(n)]
    return make_object(f"z{n}", n, add, act, require_reduced=True)


def direct_sum(a: FiniteGwaObject, b: FiniteGwaObject, name: str | None = None) -> FiniteGwaObject:
    """Componentwise sum of two abelian trivial-action objects.

    Pair (x, y) is indexed as x * b.order + y, so (0, 0) lands at index 0.
    """
    for obj in (a, b):
        _require_abelian_trivial(obj, "a direct sum")
    n = a.order * b.order

    def idx(x: int, y: int) -> int:
        return x * b.order + y

    add = [[0] * n for _ in range(n)]
    for x1 in range(a.order):
        for y1 in range(b.order):
            for x2 in range(a.order):
                for y2 in range(b.order):
                    add[idx(x1, y1)][idx(x2, y2)] = idx(a.add[x1][x2], b.add[y1][y2])
    act = [[x for _ in range(n)] for x in range(n)]
    return make_object(name or f"{a.name}x{b.name}", n, add, act, require_reduced=True)


def symmetric_group_table(n: int) -> Table:
    """Addition table of S_n: permutations of 0..n-1 in lexicographic order,
    composed left-to-right ((p+q)(i) = p(q(i))); identity sits at index 0."""
    if n < 1:
        raise InputError(f"degree must be positive, got {n}")
    perms = list(permutations(range(n)))  # lexicographic already
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )


def conjugation_object(add) -> tuple[Table, Table]:
    """Raw (add, act) tables for a group acting on itself by conjugation,
    x^y = -y + x + y.

    A negative-test generator: the result satisfies the group and action
    axioms but fails the reduced checks for any non-abelian input.  A
    malformed table or an element with no inverse raises InputError.
    """
    add = _freeze_table(add, "add")
    n = len(add)
    add = _check_table(add, n, n, n, "add")
    neg = _inverses(np.asarray(add, dtype=np.intp)).tolist()
    if -1 in neg:
        raise InputError(f"element {neg.index(-1)} has no two-sided inverse in the add table")
    act = tuple(
        tuple(add[add[neg[y]][x]][y] for y in range(n)) for x in range(n)
    )
    return add, act


def s3_conjugation_tables() -> tuple[Table, Table]:
    """The standard non-reduced example: S3 acting on itself by conjugation."""
    return conjugation_object(symmetric_group_table(3))


# The corpus in order, as (order, builder); klein4 and z2xz4 are built from
# the corpus's own z2 and z4.
_CORPUS = (
    *((n, lambda n=n: cyclic_trivial(n)) for n in range(1, 9)),
    (4, lambda: direct_sum(_corpus_object(1), _corpus_object(1), name="klein4")),
    (8, lambda: direct_sum(_corpus_object(1), _corpus_object(3), name="z2xz4")),
)


@cache  # validated once per process, when first read
def _corpus_object(i: int) -> FiniteGwaObject:
    return _CORPUS[i][1]()


def _corpus_up_to(order: int) -> list[FiniteGwaObject]:
    """The corpus objects of at most the given order, in corpus order; only
    these are built."""
    return [_corpus_object(i) for i, (n, _) in enumerate(_CORPUS) if n <= order]


def standard_corpus() -> list[FiniteGwaObject]:
    """The validated desk-scale corpus: z1..z8, klein4, z2xz4."""
    return _corpus_up_to(max(n for n, _ in _CORPUS))
