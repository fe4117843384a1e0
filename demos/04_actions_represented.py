"""Stabilizers, the quotient chain, and actions represented by PA(A).

The headline results are conditional: when A is perfect and its weak
stabilizer contains only 0, the pentaction set assembles into a reduced
object PA(A) that acts on A, and every derived action of any B on A factors
through PA(A) by a unique morphism.  The workbench verifies all of this on
finite instances and stays diagnostic where the hypotheses fail.
"""

import rgwa

# Trivial-action cyclic carriers have large weak stabilizers...
z2 = rgwa.cyclic_trivial(2)
print(f"wSt(z2) = {rgwa.weak_stabilizer(z2).members} (nonzero: hypotheses fail)")

# ...which the quotient chain removes in a single collapsing step: with a
# trivial action every endomorphism is a pow table, the identity among them,
# so the weak stabilizer is the whole carrier and A/A is already zero.
for n in (2, 4, 6):
    chain = rgwa.noether_quotient(rgwa.cyclic_trivial(n))
    sizes = [len(w) for w in chain.subgroups]
    print(f"z{n}: chain subgroup sizes {sizes}, final quotient order {chain.quotient.order}")

# Where the hypotheses fail the tool reports which theorem step breaks.
diag = rgwa.verify_representability(z2, max_b_order=3)
print(f"\nz2 diagnostic: all_passed={diag.all_passed}, "
      f"broken stages={sorted({f['stage'] for f in diag.failures})}")

# A nonzero carrier satisfying both hypotheses: Z/4 acted on by negation.
n = 4
add = [[(a + b) % n for b in range(n)] for a in range(n)]
act = [[(a if b % 2 == 0 else (-a) % n) for b in range(n)] for a in range(n)]
z4neg = rgwa.make_object("z4neg", n, add, act)
print(f"\nz4neg: perfect={rgwa.is_perfect(z4neg)}, "
      f"wSt={rgwa.weak_stabilizer(z4neg).members}")

pa = rgwa.build_pa_object(z4neg)
print(f"PA(z4neg): order {pa.order}, reduced-object check passed={pa.report.passed}")

action = rgwa.pa_action(pa)
print(f"canonical action of PA(z4neg) on z4neg is derived: {action.report.passed}")

outcome = rgwa.verify_representability(z4neg, max_b_order=3)
print(f"every small derived action factors uniquely: all_passed={outcome.all_passed} "
      f"over {outcome.pairs_checked} (B, action) pairs")

# The factorization morphism, concretely: z2 acting trivially on z4neg maps
# every element to the zero pentaction.
triple = rgwa.enumerate_derived_actions(z4neg, z2)[0]
phi = rgwa.represent(z4neg, z2, triple, pa=pa)
print(f"\ntrivial z2-action factors through phi = {phi.map}; "
      f"morphism check: {rgwa.is_morphism(phi).passed}")
print(f"uniqueness by per-element lookup: "
      f"{rgwa.verify_uniqueness(z4neg, z2, triple, phi, pa=pa).passed}")
