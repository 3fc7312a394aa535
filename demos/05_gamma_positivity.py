#!/usr/bin/env python3
# Gamma-positivity: within one fixed-point stratum the excedance
# distribution is a nonnegative combination of t^i (1+t)^(m-2i), and the
# gamma coefficients count orbit representatives. Mixing strata breaks
# the symmetry, which is exactly what the last section shows.

from cyclestat import (
    ClassSpec,
    GammaExpansionError,
    MultiPoly,
    corollary3_check,
    dist_exc,
    eulerian,
    gamma_expand,
    theorem2_gamma,
)

T = MultiPoly.t()

# Eulerian polynomials are the classic example.
for n in range(1, 7):
    shifted = eulerian(n).extract_t_factor()
    print(f"A_{n}(t)/t = {shifted}:  gamma =",
          [str(g) for g in gamma_expand(shifted, n - 1).gammas])

# Over one conjugacy class the gamma coefficients have two combinatorial
# readings, and all three computations agree.
print()
for text in ("n=4,k=0", "1,2,2,4"):
    spec = ClassSpec.parse(text)
    expansion = gamma_expand(dist_exc(spec), spec.n - spec.fixed_point_count)
    data = theorem2_gamma(spec)
    print(f"{text}: gamma =", [int(g) for g in expansion.gammas])
    print("   members with i valleys, no double ascent:", data.by_no_double_ascent)
    print("   members with i valleys / orbit size:     ",
          [str(g) for g in data.by_orbit_scaling])

# The per-stratum closed form with explicit counts.
print()
report = corollary3_check(4, 0)
print("derangements of 4:", report.lhs, "=", report.rhs, "->", report.verdict)

# Negative control: a hop-invariant union of two strata. Its excedance
# polynomial is asymmetric, so no center works -- yet every stratum on
# its own expands with nonnegative integers.
print()
mixed = dist_exc(ClassSpec.parse("n=3,k=0")) + dist_exc(ClassSpec.parse("n=3,k=1"))
print("mixed strata (k=0 and k=1 of S_3):", mixed)
for m in (2, 3, 4):
    try:
        gamma_expand(mixed, m)
        print(f"  expandable about {m}/2 (unexpected!)")
    except GammaExpansionError as err:
        print(f"  no expansion about {m}/2: {err}")
for k in (0, 1):
    piece = dist_exc(ClassSpec.parse(f"n=3,k={k}"))
    print(f"  stratum k={k}: {piece}: gamma =",
          [int(g) for g in gamma_expand(piece, 3 - k).gammas])
