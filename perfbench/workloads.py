"""Benchmark inputs and job lists, written without importing rgwa.

Carriers are built here from their definitions and, for a nonzero seed,
relabeled by a seeded permutation that fixes 0.  Parent and changed commits
therefore receive byte-identical input files whatever the program does.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import permutations

# A job is a CLI verb run through rgwa.cli.main, or a library call.  "{x}" in
# an argument is replaced by the input file of carrier x.
WORKLOADS: dict[str, list[dict]] = {
    # Most time in check_axioms on 256x256 and 128x128 tables and in the PA
    # fill; almost no enumeration.  z2xz4 leaves its reduced scan early,
    # neg2x8 scans fully and then fails pa_action, z16neg passes (exit 0).
    "pa-assembly": [
        {"id": "pa:z2xz4", "argv": ["pa", "{z2xz4}"]},
        {"id": "pa:neg2x8", "argv": ["pa", "{neg2x8}"]},
        {"id": "pa:z16neg", "argv": ["pa", "{z16neg}"]},
    ],
    # Most time in pentaction enumeration, weak_stabilizer and JSON output,
    # with many small check_axioms calls.  analyze follows pentactions on the
    # same carrier, so this is the workload whose jobs share cached work.
    "census": (
        [
            {"id": f"validate:{name}", "argv": ["validate", "{%s}" % name]}
            for name in ("z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8",
                         "klein4", "z2xz4", "s3_conjugation")
        ]
        + [
            {"id": f"{verb}:{name}", "argv": [verb, "{%s}" % name]}
            for name in ("shear16", "neg4x4", "neg8x2")
            for verb in ("pentactions", "analyze")
        ]
        + [{"id": f"oracle:{name}", "argv": ["oracle", "{%s}" % name]}
           for name in ("z1", "z2", "z3")]
        + [{"id": f"noether:{name}", "argv": ["noether", "{%s}" % name]}
           for name in ("z6", "z8")]
        + [{"id": "pentactions-budget:neg4x4",
            "argv": ["pentactions", "--budget", "1000", "{neg4x4}"]}]
    ),
    # Most time in the m^|B| uniqueness search and derived-action
    # enumeration, over small PA objects.
    "represent": [
        {"id": "represent:z8neg", "argv": ["represent", "--max-order", "4", "{z8neg}"]},
        {"id": "represent:z5", "argv": ["represent", "--max-order", "4", "{z5}"]},
        {"id": "enumerate_derived_actions:z2xz4:klein4",
         "call": "enumerate_derived_actions", "args": ["z2xz4", "klein4"]},
    ],
    # Tiny list for the self-check; the last job carries a deliberately wrong
    # pinned digest and must be reported as one failed job.
    "selfcheck": [
        {"id": "validate:z1", "argv": ["validate", "{z1}"]},
        {"id": "oracle:z2", "argv": ["oracle", "{z2}"]},
        {"id": "analyze:z3", "argv": ["analyze", "{z3}"]},
        {"id": "pa:z3", "argv": ["pa", "{z3}"]},
        {"id": "represent:z2", "argv": ["represent", "--max-order", "2", "{z2}"]},
        {"id": "enumerate_derived_actions:z3:z2",
         "call": "enumerate_derived_actions", "args": ["z3", "z2"]},
        {"id": "pentactions:z3#wrong-digest", "argv": ["pentactions", "{z3}"]},
    ],
}


def jobs_digest(workload: str) -> str:
    text = json.dumps(WORKLOADS[workload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def carriers_of(workload: str) -> list[str]:
    names: set[str] = set()
    for job in WORKLOADS[workload]:
        for arg in job.get("argv", []):
            if arg.startswith("{"):
                names.add(arg[1:-1])
        names.update(job.get("args", []))
    return sorted(names)


# ---------------------------------------------------------------------------
# Carrier tables.  Products index the pair (x, y) as x * n2 + y, the layout
# rgwa's direct_sum uses, so seed 0 reproduces the files `rgwa corpus` writes.
# ---------------------------------------------------------------------------


def _cyclic(n: int, negate: bool = False):
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    act = [[(-x) % n if negate and y % 2 else x for y in range(n)] for x in range(n)]
    return add, act


def _product(n1: int, n2: int, negate: bool = False):
    """Z/n1 (+) Z/n2; with ``negate``, x^y = -x when y's first coordinate is odd."""
    n = n1 * n2
    add = [[0] * n for _ in range(n)]
    act = [[0] * n for _ in range(n)]
    for x in range(n):
        x1, x2 = divmod(x, n2)
        minus = ((-x1) % n1) * n2 + (-x2) % n2
        for y in range(n):
            y1, y2 = divmod(y, n2)
            add[x][y] = ((x1 + y1) % n1) * n2 + (x2 + y2) % n2
            act[x][y] = minus if negate and y1 % 2 else x
    return add, act


def _shear16():
    """Z/4 (+) Z/4 where exponent (x', y') applies (x, y) -> (x, x'x + y)."""
    add, _ = _product(4, 4)
    act = [[4 * (x // 4) + ((y // 4) * (x // 4) + x % 4) % 4 for y in range(16)]
           for x in range(16)]
    return add, act


def _s3_conjugation():
    """S3 (lexicographic permutations, (p+q)(i) = p(q(i))) acting on itself
    by conjugation, x^y = -y + x + y: fails the reduced checks."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    add = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    neg = [row.index(0) for row in add]
    act = [[add[add[neg[y]][x]][y] for y in range(6)] for x in range(6)]
    return add, act


CARRIERS = {
    **{f"z{n}": (lambda n=n: _cyclic(n)) for n in range(1, 9)},
    "klein4": lambda: _product(2, 2),
    "z2xz4": lambda: _product(2, 4),
    "s3_conjugation": _s3_conjugation,
    "z8neg": lambda: _cyclic(8, negate=True),
    "z16neg": lambda: _cyclic(16, negate=True),
    "neg2x8": lambda: _product(2, 8, negate=True),
    "neg4x4": lambda: _product(4, 4, negate=True),
    "neg8x2": lambda: _product(8, 2, negate=True),
    "shear16": _shear16,
}


# ---------------------------------------------------------------------------
# Seeded relabeling.
# ---------------------------------------------------------------------------


def greedy_generators(add) -> list[int]:
    """Additive generators picked by the rule "smallest label not yet
    generated"; the enumerators' candidate counts grow as n per generator."""
    n = len(add)
    gens: list[int] = []
    closure = {0}
    while len(closure) < n:
        gens.append(min(x for x in range(n) if x not in closure))
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = add[x][g]
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
    return gens


def relabel(add, act, sigma):
    """Tables of the same object under the relabeling x -> sigma[x]."""
    n = len(add)
    new_add = [[0] * n for _ in range(n)]
    new_act = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new_add[sigma[x]][sigma[y]] = sigma[add[x][y]]
            new_act[sigma[x]][sigma[y]] = sigma[act[x][y]]
    return new_add, new_act


def carrier_tables(name: str, seed: int):
    """(add, act) of a carrier; seed 0 keeps the defining labels, any other
    seed applies a seeded permutation fixing 0 that keeps the number of
    greedy generators."""
    add, act = CARRIERS[name]()
    if seed == 0:
        return add, act
    n = len(add)
    want = len(greedy_generators(add))
    rng = random.Random(f"{seed}:{name}")
    for _ in range(10_000):
        rest = list(range(1, n))
        rng.shuffle(rest)
        sigma = [0] + rest
        new_add, new_act = relabel(add, act, sigma)
        if len(greedy_generators(new_add)) == want:
            return new_add, new_act
    raise RuntimeError(f"no relabeling of {name} keeps {want} generators")


def object_document(name: str, seed: int) -> str:
    """Object file text, byte-identical to rgwa's pretty object files."""
    add, act = carrier_tables(name, seed)
    doc = {"name": name, "order": len(add), "add": add, "act": act}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
