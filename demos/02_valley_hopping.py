#!/usr/bin/env python3
# Valley-hopping: letters hop over their smaller neighbours, toggling
# double ascents and double descents while valleys and peaks sit still.

from cyclestat import (
    orbit,
    orbit_exc_polynomial,
    parse_permutation,
    phi,
    psi,
    stat_counts,
    to_cycle_form,
)

# The word-level action. Around x = 7 the word 834279156 factors as
# w1 w2 x w4 w5 = (8)(342)(7)()(9156), with w2, w4 the maximal runs of
# smaller letters beside x. 7 has a smaller letter on its left and a
# larger one on its right, a double ascent, so it hops: w2 and w4 swap.
p = parse_permutation("834279156")
print("phi_{7}:", p, "->", phi(p, {7}), "= w1 w4 x w2 w5")
print("phi_{6,7,8}:", p, "->", phi(p, {6, 7, 8}))
print("applied twice:", phi(phi(p, {6, 7, 8}), {6, 7, 8}), "(involution)")

# The cycle-level action works through the parenthesis-erased word and
# preserves the cycle type.
q = parse_permutation("(5,2,3)(8)(9,7,6,4,1)")
print()
print("psi_{3,7}:", to_cycle_form(q), "->", to_cycle_form(psi(q, {3, 7})))

# Orbits: only cyclic double ascents/descents can move, so the orbit of
# a permutation with d of them has 2^d members, and exactly one member
# has no cyclic double ascent at all.
r = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
rep = orbit(r, collect_members=True)
c = stat_counts(r)
print()
print(f"orbit of {to_cycle_form(r)}:")
print(f"  size {rep.size} = 2^(n - fix - 2 cval) = 2^({r.n} - {c.fix} - {2 * c.cval})")
print(f"  representative (no double ascents): {to_cycle_form(rep.representative)}")

# Summing t^exc over one orbit always gives t^cval (1+t)^(n-fix-2cval).
print("  sum of t^exc over the orbit:", orbit_exc_polynomial(r))
