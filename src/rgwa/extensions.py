"""Actions of one object on another: split extensions, the derived-action
triple they induce, and the 22-condition characterization of derived actions.

A triple consists of ``dot[b][a] = b . a``, ``up[a][b] = a ^ b`` and
``pow[b][a] = b ^ a``.  ``check_derived_action`` scans, in order: the three
group-action laws for the dot component (ga.1-ga.3), the eight structure
laws 1A-4A / 1B-4B, the unit law zeroB, and the ten interaction laws
a1-a10.  Conditions with side constraints skip the excluded tuples rather
than failing vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from .corpus import direct_sum
from .core import (
    FiniteGwaObject,
    GwaMorphism,
    Table,
    _freeze_table,
    additive_bijections,
    extend_crossed_map,
    generating_words,
    invert_map,
    is_morphism,
)
from .errors import BudgetExceededError, InputError, StructuralError, ValidationError
from .report import CheckReport, Violation

DEFAULT_BUDGET = 100_000_000

_BRUTEFORCE_CAP = 4_194_304


@dataclass(frozen=True)
class SplitExtension:
    """A short exact sequence 0 -> A -i-> E -p-> B -> 0 with a section j."""

    A: FiniteGwaObject
    E: FiniteGwaObject
    B: FiniteGwaObject
    i: GwaMorphism
    p: GwaMorphism
    j: GwaMorphism


@dataclass(frozen=True)
class DerivedActionTriple:
    """Value tables of an action of B on A.

    ``report`` carries the outcome of the 22-condition scan when the triple
    has been verified; triples may also exist unverified (report None).
    """

    A: FiniteGwaObject
    B: FiniteGwaObject
    dot: Table
    up: Table
    pow: Table
    report: CheckReport | None = field(default=None, compare=False)

    def key(self) -> tuple[int, ...]:
        """Canonical sort key: concatenated dot | up | pow tables."""
        return (
            tuple(v for row in self.dot for v in row)
            + tuple(v for row in self.up for v in row)
            + tuple(v for row in self.pow for v in row)
        )


def _same_obj(x: FiniteGwaObject, y: FiniteGwaObject) -> bool:
    return x is y or x.table_equal(y)


def _validate_triple_shape(triple: DerivedActionTriple) -> None:
    na, nb = triple.A.order, triple.B.order
    for name, table, rows, cols in (
        ("dot", triple.dot, nb, na),
        ("up", triple.up, na, nb),
        ("pow", triple.pow, nb, na),
    ):
        if len(table) != rows or any(len(r) != cols for r in table):
            raise InputError(f"{name} table must be {rows}x{cols}")
        for r in table:
            for v in r:
                if not 0 <= v < na:
                    raise InputError(f"{name} entry {v} out of range 0..{na - 1}")


def check_split_extension(ext: SplitExtension) -> CheckReport:
    """Verify the component morphisms plus injectivity, surjectivity, the
    kernel equation image(i) = p^-1(0), and the section law p(j(b)) = b."""
    endpoint_pairs = (
        (ext.i.source, ext.A, "i.source"),
        (ext.i.target, ext.E, "i.target"),
        (ext.p.source, ext.E, "p.source"),
        (ext.p.target, ext.B, "p.target"),
        (ext.j.source, ext.B, "j.source"),
        (ext.j.target, ext.E, "j.target"),
    )
    for got, want, label in endpoint_pairs:
        if not _same_obj(got, want):
            raise InputError(f"extension endpoint mismatch at {label}")
    violations: list[Violation] = []
    for label, f in (("i", ext.i), ("p", ext.p), ("j", ext.j)):
        for v in is_morphism(f).violations:
            violations.append(Violation(f"ext.{label}.{v.condition}", v.witness))
    for x in range(ext.A.order):
        hit = False
        for y in range(x + 1, ext.A.order):
            if ext.i.map[x] == ext.i.map[y]:
                violations.append(Violation("ext.inj", (x, y)))
                hit = True
                break
        if hit:
            break
    image_p = set(ext.p.map)
    for b in range(ext.B.order):
        if b not in image_p:
            violations.append(Violation("ext.surj", (b,)))
            break
    image_i = set(ext.i.map)
    for e in range(ext.E.order):
        if (ext.p.map[e] == 0) != (e in image_i):
            violations.append(Violation("ext.ker", (e,)))
            break
    for b in range(ext.B.order):
        if ext.p.map[ext.j.map[b]] != b:
            violations.append(Violation("ext.section", (b,)))
            break
    return CheckReport(tuple(violations))


def action_from_split_extension(ext: SplitExtension) -> DerivedActionTriple:
    """Compute the induced triple inside E and read it back through i:

        b . a = j(b) + a - j(b)
        b ^ a = j(b)^a - j(b)
        a ^ b = a^(j(b))

    Raises StructuralError when a computed value escapes image(i).
    """
    report = check_split_extension(ext)
    if not report.passed:
        raise ValidationError("split extension fails its structural checks", report)
    E, A, B = ext.E, ext.A, ext.B
    back = {e: a for a, e in enumerate(ext.i.map)}

    def readback(value: int, what: str, b: int, a: int) -> int:
        try:
            return back[value]
        except KeyError:
            raise StructuralError(
                f"{what} at (b={b}, a={a}) produced E-element {value} outside "
                f"image(i); the extension is not internal to the reduced category"
            ) from None

    dot, pw = [], []
    for b in range(B.order):
        jb, njb = ext.j.map[b], E.neg[ext.j.map[b]]
        dot.append(
            tuple(
                readback(E.add[E.add[jb][ext.i.map[a]]][njb], "b.a", b, a)
                for a in range(A.order)
            )
        )
        pw.append(
            tuple(
                readback(E.add[E.act[jb][ext.i.map[a]]][njb], "b^a", b, a)
                for a in range(A.order)
            )
        )
    up = tuple(
        tuple(
            readback(E.act[ext.i.map[a]][ext.j.map[b]], "a^b", b, a)
            for b in range(B.order)
        )
        for a in range(A.order)
    )
    triple = DerivedActionTriple(A, B, tuple(dot), up, tuple(pw))
    return replace(triple, report=check_derived_action(triple))


def check_derived_action(triple: DerivedActionTriple) -> CheckReport:
    """Scan the 22 derived-action conditions; one minimal witness each."""
    _validate_triple_shape(triple)
    A, B = triple.A, triple.B
    addA, actA = A.add, A.act
    addB, actB = B.add, B.act
    dot, up, pw = triple.dot, triple.up, triple.pow
    ra, rb = range(A.order), range(B.order)
    violations: list[Violation] = []

    def scan(condition, space, violated):
        for w in space:
            if violated(*w):
                violations.append(Violation(condition, w))
                return

    scan("ga.1", product(rb, rb, ra),
         lambda b, b2, a: dot[addB[b][b2]][a] != dot[b][dot[b2][a]])
    scan("ga.2", product(rb, ra, ra),
         lambda b, a, a2: dot[b][addA[a][a2]] != addA[dot[b][a]][dot[b][a2]])
    scan("ga.3", product(ra),
         lambda a: dot[0][a] != a)
    scan("1A", product(ra, ra, rb),
         lambda a, a2, b: up[addA[a][a2]][b] != addA[up[a][b]][up[a2][b]])
    scan("2A", product(rb, rb, ra),
         lambda b, b2, a: pw[addB[b][b2]][a] != addA[pw[b][a]][dot[b][pw[b2][a]]])
    scan("3A", product(rb, ra, ra),
         lambda b, a, a2: a2 != 0 and actA[dot[b][a]][a2] != actA[a][a2])
    scan("4A", product(rb, ra, rb),
         lambda b, a, b2: up[dot[b][a]][b2] != up[a][b2])
    scan("1B", product(rb, ra, ra),
         lambda b, a, a2: pw[b][addA[a][a2]] != addA[actA[pw[b][a]][a2]][pw[b][a2]])
    scan("2B", product(ra, rb, rb),
         lambda a, b, b2: up[a][addB[b][b2]] != up[up[a][b]][b2])
    scan("3B", product(ra, rb, ra),
         lambda a, b, a2: up[actA[a][dot[b][a2]]][b] != actA[up[a][b]][a2])
    scan("4B", product(rb, rb, ra),
         lambda b, b2, a: up[pw[b][dot[b2][a]]][b2] != pw[actB[b][b2]][a])
    scan("zeroB", product(ra),
         lambda a: up[a][0] != a)
    scan("a1", product(rb, ra, ra),
         lambda b, a, a2: a2 != 0 and dot[b][actA[a][a2]] != actA[a][a2])
    scan("a2", product(rb, ra, rb),
         lambda b, a, b2: b2 != 0 and dot[b][up[a][b2]] != up[a][b2])
    scan("a3", product(rb, rb, ra),
         lambda b, b2, a: b2 != 0 and dot[actB[b][b2]][a] != a)
    scan("a4", product(rb, ra, ra),
         lambda b, a, a2: pw[b][actA[a][a2]] != pw[b][a])
    scan("a5", product(ra, rb, rb),
         lambda a, b, b2: up[a][actB[b][b2]] != up[a][b])
    scan("a6", product(ra, rb, ra),
         lambda a, b, a2: b != 0 and addA[up[a][b]][a2] != addA[a2][up[a][b]])
    scan("a7", product(ra, ra, rb),
         lambda a, a2, b: actA[a][up[a2][b]] != actA[a][a2])
    scan("a8", product(ra, rb, ra),
         lambda a, b, a2: a2 != 0 and actA[a][pw[b][a2]] != a)
    scan("a9", product(rb, rb, ra),
         lambda b, b2, a: pw[b][pw[b2][a]] != 0)
    scan("a10", product(rb, ra, rb),
         lambda b, a, b2: pw[b][up[a][b2]] != pw[b][a])
    return CheckReport(tuple(violations))


# ---------------------------------------------------------------------------
# Enumeration of all derived actions of B on A.
# ---------------------------------------------------------------------------


def _map_families(A: FiniteGwaObject, B: FiniteGwaObject, contravariant: bool):
    """Families b -> (additive bijection of A) respecting B's addition:
    f(x+y) = f(y) o f(x) when contravariant, f(x) o f(y) otherwise.

    Generated from bijections assigned to B's generators and filtered by the
    full composition law, so doomed families never reach the pow search.
    """
    bij = additive_bijections(A)
    inverses = {f: invert_map(f) for f in bij}
    gensB, stepsB = generating_words(B)
    identity = tuple(range(A.order))
    ra = range(A.order)
    out = []
    for images in product(bij, repeat=len(gensB)):
        fam: list[tuple[int, ...]] = [()] * B.order
        fam[0] = identity
        for elem, parent, gi, sign in stepsB:
            g = images[gi] if sign > 0 else inverses[images[gi]]
            if contravariant:
                fam[elem] = tuple(g[fam[parent][a]] for a in ra)
            else:
                fam[elem] = tuple(fam[parent][g[a]] for a in ra)
        if all(
            fam[B.add[x][y]]
            == tuple((fam[y][fam[x][a]] if contravariant else fam[x][fam[y][a]]) for a in ra)
            for x in range(B.order)
            for y in range(B.order)
        ):
            out.append(tuple(fam))
    return out


# Per-table condition groups, shared by both enumerators so partially built
# candidates can be rejected before the pow search multiplies them out.


def _dot_conditions_hold(A: FiniteGwaObject, B: FiniteGwaObject, dot) -> bool:
    """ga.1-ga.3, 3A, a1 and a3: everything touching only the dot table."""
    addA, actA, addB, actB = A.add, A.act, B.add, B.act
    ra, rb = range(A.order), range(B.order)
    return (
        all(dot[0][a] == a for a in ra)
        and all(
            dot[addB[b][b2]][a] == dot[b][dot[b2][a]]
            for b in rb for b2 in rb for a in ra
        )
        and all(
            dot[b][addA[a][a2]] == addA[dot[b][a]][dot[b][a2]]
            for b in rb for a in ra for a2 in ra
        )
        and all(
            actA[dot[b][a]][a2] == actA[a][a2]
            for b in rb for a in ra for a2 in ra if a2 != 0
        )
        and all(
            dot[b][actA[a][a2]] == actA[a][a2]
            for b in rb for a in ra for a2 in ra if a2 != 0
        )
        and all(
            dot[actB[b][b2]][a] == a
            for b in rb for b2 in rb for a in ra if b2 != 0
        )
    )


def _up_conditions_hold(A: FiniteGwaObject, B: FiniteGwaObject, up) -> bool:
    """1A, 2B, zeroB, a5, a6 and a7: everything touching only the up table."""
    addA, actA, addB, actB = A.add, A.act, B.add, B.act
    ra, rb = range(A.order), range(B.order)
    return (
        all(up[a][0] == a for a in ra)
        and all(
            up[addA[a][a2]][b] == addA[up[a][b]][up[a2][b]]
            for a in ra for a2 in ra for b in rb
        )
        and all(
            up[a][addB[b][b2]] == up[up[a][b]][b2]
            for a in ra for b in rb for b2 in rb
        )
        and all(
            up[a][actB[b][b2]] == up[a][b]
            for a in ra for b in rb for b2 in rb
        )
        and all(
            addA[up[a][b]][a2] == addA[a2][up[a][b]]
            for a in ra for b in rb for a2 in ra if b != 0
        )
        and all(
            actA[a][up[a2][b]] == actA[a][a2]
            for a in ra for a2 in ra for b in rb
        )
    )


def _pow_row_conditions_hold(A: FiniteGwaObject, row) -> bool:
    """a9 at b = b2, a4, a8 and 1B on one pow row pw[b]: the conditions
    that read no other row of the pow table and neither dot nor up."""
    addA, actA = A.add, A.act
    ra = range(A.order)
    return (
        all(row[row[a]] == 0 for a in ra)
        and all(row[actA[a][a2]] == row[a] for a in ra for a2 in ra)
        and all(actA[a][row[a2]] == a for a in ra for a2 in ra if a2 != 0)
        and all(
            row[addA[a][a2]] == addA[actA[row[a]][a2]][row[a2]]
            for a in ra for a2 in ra
        )
    )


def _coupled_conditions_hold(A: FiniteGwaObject, B: FiniteGwaObject, dot, up, pw) -> bool:
    """The ten conditions mixing tables, cheap rejections first.  Assumes the
    per-table groups above already hold."""
    addA, actA, addB, actB = A.add, A.act, B.add, B.act
    ra, rb = range(A.order), range(B.order)
    return (
        all(pw[b][pw[b2][a]] == 0 for b in rb for b2 in rb for a in ra)  # a9
        and all(  # 2A
            pw[addB[b][b2]][a] == addA[pw[b][a]][dot[b][pw[b2][a]]]
            for b in rb for b2 in rb for a in ra
        )
        and all(  # 4B
            up[pw[b][dot[b2][a]]][b2] == pw[actB[b][b2]][a]
            for b in rb for b2 in rb for a in ra
        )
        and all(  # a2
            dot[b][up[a][b2]] == up[a][b2]
            for b in rb for a in ra for b2 in rb if b2 != 0
        )
        and all(  # 4A
            up[dot[b][a]][b2] == up[a][b2]
            for b in rb for a in ra for b2 in rb
        )
        and all(  # a10
            pw[b][up[a][b2]] == pw[b][a]
            for b in rb for a in ra for b2 in rb
        )
        and all(  # 1B
            pw[b][addA[a][a2]] == addA[actA[pw[b][a]][a2]][pw[b][a2]]
            for b in rb for a in ra for a2 in ra
        )
        and all(  # a4
            pw[b][actA[a][a2]] == pw[b][a]
            for b in rb for a in ra for a2 in ra
        )
        and all(  # a8
            actA[a][pw[b][a2]] == a
            for a in ra for b in rb for a2 in ra if a2 != 0
        )
        and all(  # 3B
            up[actA[a][dot[b][a2]]][b] == actA[up[a][b]][a2]
            for a in ra for b in rb for a2 in ra
        )
    )


def enumerate_derived_actions(
    A: FiniteGwaObject, B: FiniteGwaObject, budget: int = DEFAULT_BUDGET
) -> list[DerivedActionTriple]:
    """All verified derived actions of B on A, canonically ordered.

    Pruned: the per-element up maps are forced to be additive bijections
    composing anti-homomorphically (1A, 2B, zeroB), the dot maps compose
    homomorphically (ga laws), and the pow table is generated from its
    values on additive generators of A and B (1B, 2A).  A generator g of B
    is first reached from 0 and dot[0] is the identity, so pw[g] is exactly
    its generator row: rows failing a9 (at b = b2), a4, a8 or 1B are dropped
    once per A, and rows failing a10 once per up table, before the rows of
    the generators are multiplied out.  The full condition scan filters the
    candidates.
    """
    gensA, stepsA = generating_words(A)
    gensB, stepsB = generating_words(B)
    na = A.order
    all_ups = _map_families(A, B, contravariant=True)
    all_dots = _map_families(A, B, contravariant=False)
    per_b = na ** len(gensA)
    total = len(all_ups) * len(all_dots) * per_b ** len(gensB)
    if total > budget:
        raise BudgetExceededError(
            f"derived-action enumeration for {B.name!r} on {A.name!r} needs "
            f"{total} candidate visits, budget is {budget}; 0 candidates checked"
        )
    ups = []
    for up_fam in all_ups:
        up = tuple(tuple(up_fam[b][a] for b in range(B.order)) for a in range(na))
        if _up_conditions_hold(A, B, up):
            ups.append(up)
    dots = [dot for dot in all_dots if _dot_conditions_hold(A, B, dot)]
    rows = [
        extend_crossed_map(A, gensA, stepsA, images)
        for images in product(range(na), repeat=len(gensA))
    ]
    rows = [row for row in rows if _pow_row_conditions_hold(A, row)]
    zero_row = (0,) * na
    found: list[DerivedActionTriple] = []
    for up in ups:
        up_rows = [  # a10
            row for row in rows
            if all(row[up[a][b]] == row[a] for a in range(na) for b in range(B.order))
        ]
        for dot in dots:
            for gen_rows in product(up_rows, repeat=len(gensB)):
                pw: list[tuple[int, ...]] = [()] * B.order
                pw[0] = zero_row
                for elem, parent, gi, sign in stepsB:
                    row_g = gen_rows[gi]
                    if sign > 0:
                        pw[elem] = tuple(
                            A.add[pw[parent][a]][dot[parent][row_g[a]]]
                            for a in range(na)
                        )
                    else:
                        pw[elem] = tuple(
                            A.add[pw[parent][a]][A.neg[dot[elem][row_g[a]]]]
                            for a in range(na)
                        )
                if not _coupled_conditions_hold(A, B, dot, up, pw):
                    continue
                cand = DerivedActionTriple(A, B, dot, up, tuple(pw))
                report = check_derived_action(cand)
                if report.passed:
                    found.append(
                        DerivedActionTriple(A, B, dot, up, tuple(pw), report=report)
                    )
    found.sort(key=DerivedActionTriple.key)
    return found


def enumerate_derived_actions_bruteforce(
    A: FiniteGwaObject, B: FiniteGwaObject
) -> list[DerivedActionTriple]:
    """Exhaustive oracle: filter all n_A^(3 n_A n_B) raw table triples.

    Conditions touching only the dot (resp. up) table are applied as soon as
    that table is fixed, which rejects exactly the triples the full scan
    would reject; every surviving candidate runs check_derived_action.
    """
    na, nb = A.order, B.order
    if na ** (3 * na * nb) > _BRUTEFORCE_CAP:
        raise InputError(
            f"brute-force enumeration of actions of {B.name!r} on {A.name!r} "
            f"would visit {na ** (3 * na * nb)} triples, above the cap"
        )
    ra = range(na)

    def tables(rows: int, cols: int):
        for flat in product(ra, repeat=rows * cols):
            yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))

    found = []
    for dot in tables(nb, na):
        if not _dot_conditions_hold(A, B, dot):
            continue
        for up in tables(na, nb):
            if not _up_conditions_hold(A, B, up):
                continue
            for pw in tables(nb, na):
                cand = DerivedActionTriple(A, B, dot, up, pw)
                report = check_derived_action(cand)
                if report.passed:
                    found.append(
                        DerivedActionTriple(A, B, dot, up, pw, report=report)
                    )
    return found


def direct_sum_extension(A: FiniteGwaObject, B: FiniteGwaObject) -> SplitExtension:
    """The split extension of B by A with E = A (+) B, i(a) = (a, 0),
    p((x, y)) = y and j(b) = (0, b)."""
    E = direct_sum(A, B)
    i = GwaMorphism(A, E, tuple(a * B.order for a in range(A.order)))
    p = GwaMorphism(E, B, tuple(e % B.order for e in range(E.order)))
    j = GwaMorphism(B, E, tuple(range(B.order)))
    return SplitExtension(A, E, B, i, p, j)
