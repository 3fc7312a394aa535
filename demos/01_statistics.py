#!/usr/bin/env python3
# Cyclic statistics of a permutation: where every letter lands when you
# compare it with its neighbours inside its own cycle.

from cyclestat import (
    cycle_type,
    des,
    parse_permutation,
    stat_counts,
    stat_sets,
    to_cycle_form,
)

# A permutation can be entered in one-line or cycle notation.
p = parse_permutation("371896542")
print("one-line:", p)
print("cycles:  ", to_cycle_form(p))
print("type:    ", cycle_type(p))
print("descents:", des(p))

# The six letter classes. Excedances (i < p(i)) split into cyclic
# valleys and cyclic double ascents; the rest of [n] are cyclic peaks,
# cyclic double descents, and fixed points.
q = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
sets = stat_sets(q)
print()
print("pi =", to_cycle_form(q))
for name in ("exc", "cval", "cpk", "cdasc", "cddes", "fix"):
    print(f"  {name:5s} = {sorted(getattr(sets, name + '_set'))}")
print("counts:", stat_counts(q))

# The canonical cycle word (erase the parentheses) is a bijection: each
# canonical cycle starts with its maximum and the cycles come by
# increasing maximum, so the word's left-to-right maxima are the cycle
# leaders and tell you where to cut to get the cycles back.
cycles = to_cycle_form(q).cycles
print()
print("parenthesis-erased word:", ",".join(str(a) for cycle in cycles for a in cycle))
print("cut before its left-to-right maxima:", [cycle[0] for cycle in cycles])
