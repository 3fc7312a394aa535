#!/usr/bin/env python3
# The same polynomials along a second, independent route: products of
# Eulerian polynomials with algebraic substitutions. The library sums
# the substituted products in integers through the Catalan series, so
# no square root is evaluated; below, those integers for one class.

from cyclestat import (
    ClassSpec,
    brenti,
    class_size,
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
# checked against the enumeration route.
print()
for text in ("3", "1,2,2", "2,3,4"):
    ct = CycleType.from_text(text)
    closed = brenti(ct)
    enumerated = dist_exc(ClassSpec.of_cycle_type(ct), route="enumerate")
    print(f"lambda={text}: {closed}   (matches enumeration: {closed == enumerated})")

# The Catalan reading of the radicals. With z = st/(1+t)^2 and the
# Catalan series C(z) = 1 + z C(z)^2, Theorem 1's substitutions are
# v = C(z) - 1 and (1+u)/(1+uv) = (1+t)/C(z). So with K = n - m_1 the
# joint closed form is sum_a Q_a s^a t^a (1+t)^(K-2a) for integers Q_a,
# and Q_a is its coefficient of s^a t^a. Theorem 6 is
# sum_a Q_a 2^(K-2a) t^a, so sum_a Q_a 2^(K-2a) is the class size. Each
# cycle of length 2 or more holds a cyclic valley, so here Q_0 to Q_2
# are 0.
print()
ct = CycleType((2, 3, 4))
k = ct.n - ct.fixed_point_count
joint = theorem1_joint(ct)
q = [int(joint.coefficient(a, a)) for a in range(k // 2 + 1)]
print(f"lambda=2,3,4, K={k}: Q_a =", ", ".join(map(str, q)))
total = sum(c * 2 ** (k - 2 * a) for a, c in enumerate(q))
print(f"sum_a Q_a 2^(K-2a) = {total}, class size {class_size(ct)}:",
      total == class_size(ct))

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
