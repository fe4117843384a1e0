"""Pentactions: the five-map calculus and its enumeration.

A pentaction packages how one abstract element b could act on a carrier A:
left/right dot maps, a forward and a backward exponent map, and the table
of b raised to carrier elements.  Nineteen conditions tie the five maps to
A's own operations.  The pruned enumerator walks additive bijections and
generator-determined pow tables; the brute-force oracle filters every
five-tuple of self-maps and must agree exactly.
"""

import rgwa

z3 = rgwa.cyclic_trivial(3)

pruned = rgwa.enumerate_pentactions(z3)
brute = rgwa.enumerate_pentactions_bruteforce(z3)
print(f"pentactions of z3: pruned={len(pruned)}, brute-force={len(brute)}, "
      f"identical order={[p.key() for p in pruned] == [p.key() for p in brute]}")
for p in pruned:
    print(f"  up={p.up} pow={p.pow}")

# The distinguished zero: identity maps with a vanishing pow table.
zero = rgwa.zero_pentaction(z3)
print(f"\nzero pentaction passes: {rgwa.check_pentaction(zero).passed}")

# A failing candidate: a constant dot map cannot be undone by any right dot.
candidate = rgwa.Pentaction(z3, (0, 0, 0), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 0, 0))
report = rgwa.check_pentaction(candidate)
print(f"constant dot map fails: {report.conditions()}")

# The set carries an addition (composition plus a twisted pow sum), an
# opposite, and a power operation; on every reduced carrier it is closed
# under all of them.
p, q = pruned[3], pruned[5]
total = rgwa.pent_add(p, q)
print(f"\np.up={p.up}, q.up={q.up}, (p+q).up={total.up} (composition)")
print(f"p.pow={p.pow}, q.pow={q.pow}, (p+q).pow={total.pow}")
print(f"sum still a pentaction: {rgwa.check_pentaction(total).passed}")

opposite = rgwa.pent_neg(p)
print(f"\n-p has up={opposite.up}; p + (-p) == zero: "
      f"{rgwa.pent_add(p, opposite) == zero}")

power = rgwa.pent_pow(p, q)
print(f"p^q has pow={power.pow}; equals q.up applied after p.pow: "
      f"{power.pow == tuple(q.up[p.pow[a]] for a in range(3))}")

# The census grows quickly with the automorphism and endomorphism count.
for name, obj in [("z8", rgwa.cyclic_trivial(8)),
                  ("klein4", rgwa.direct_sum(rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(2), name="klein4"))]:
    print(f"\n|PA({name})| = {len(rgwa.enumerate_pentactions(obj))}")
