#!/usr/bin/env python3
# The same polynomials along a second, independent route: products of
# Eulerian polynomials with algebraic substitutions. The library sums
# the substituted products in integers through the Catalan series, so
# no square root is evaluated; the exact series below show one radical.

from cyclestat import (
    ClassSpec,
    MultiPoly,
    TruncSeries,
    brenti,
    dist_cval,
    dist_exc,
    dist_joint,
    eulerian,
    partitions_of,
    theorem1_joint,
    theorem6_cval,
)
from cyclestat.permutations import CycleType

# Eulerian polynomials (lowest term t for n >= 1).
for n in range(0, 6):
    print(f"A_{n}(t) =", eulerian(n))

# Excedance distribution over a class as a scaled product of Eulerians,
# checked against enumeration, which visits every member.
print()
for text in ("3", "1,2,2", "2,3,4"):
    ct = CycleType.from_text(text)
    closed = brenti(ct)
    enumerated = dist_exc(ClassSpec.of_cycle_type(ct), route="enumerate")
    print(f"lambda={text}: {closed}   (matches enumeration: {closed == enumerated})")

# A taste of the series machinery: sqrt(1-t) as an exact series.
print()
root = TruncSeries.from_poly(MultiPoly.one() - MultiPoly.t(), 5).sqrt()
print("sqrt(1-t) =", root)

# The joint (cval, exc) closed form needs the bivariate radical
# sqrt((1+t)^2 - 4st); the radicals cancel and an exact polynomial
# remains, equal coefficient-for-coefficient to the enumeration and to
# the factorized route (a product of single-cycle distributions).
print()
for text in ("2,2", "2,3,4"):
    ct = CycleType.from_text(text)
    closed = theorem1_joint(ct)
    spec = ClassSpec.of_cycle_type(ct)
    print(f"joint over lambda={text}: matches enumeration:",
          closed == dist_joint(spec, route="enumerate"))
ct = CycleType((1, 5, 5))
print("joint over lambda=1,5,5 (798,336 members): matches the factorized route:",
      theorem1_joint(ct) == dist_joint(ClassSpec.of_cycle_type(ct)))

# Same story for the cyclic-valley distribution.
print()
agree = all(
    theorem6_cval(ct) == dist_cval(ClassSpec.of_cycle_type(ct), route="enumerate")
    for n in range(0, 8)
    for ct in partitions_of(n)
)
print("valley closed form vs enumeration, every class with n<=7:", agree)
