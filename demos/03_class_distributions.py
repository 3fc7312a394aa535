#!/usr/bin/env python3
# Distribution polynomials over conjugacy classes. By default they come
# from the factorized route: cval and exc are local to each cycle, so a
# class's polynomial is a product of single-cycle distributions and no
# member is visited. route="enumerate" visits every member instead (and
# stores none of them); it is the brute-force oracle for the closed forms.

import time

from cyclestat import (
    ClassSpec,
    class_size,
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    partitions_of,
    z_lambda,
)
from cyclestat.permutations import CycleType

# Small classes first (factorized route).
for text in ("3", "1,2", "2,2"):
    spec = ClassSpec.parse(text)
    print(f"lambda={text}:  exc: {dist_exc(spec)}   cval: {dist_cval(spec)}")

# Strata by fixed-point count work the same way ("n=4,k=0" means the
# derangements of 4).
print("derangements of 4:", dist_exc(ClassSpec.parse("n=4,k=0")))

# The showcase class.
ct = CycleType((1, 5, 5))
print()
print(f"lambda = {ct}: z = {z_lambda(ct)}, class size = {class_size(ct)}")
start = time.perf_counter()
joint = dist_joint(ClassSpec.of_cycle_type(ct))
elapsed_ms = 1e3 * (time.perf_counter() - start)
print(f"joint distribution, factorized in {elapsed_ms:.2f} ms:")
for i in range(joint.s_degree() + 1):
    row = joint.coefficient_of_s(i)
    if not row.is_zero():
        print(f"  [s^{i}] {row}")

# Enumeration agrees member by member; (2,3,4) has 15,120 members.
spec = ClassSpec.parse("2,3,4")
start = time.perf_counter()
enumerated = dist_joint(spec, route="enumerate")
print()
print(
    f"lambda = (2,3,4), enumerated in {time.perf_counter() - start:.2f}s:",
    "matches the factorized route:",
    enumerated == dist_joint(spec),
)

# Counts by length, fixed points, and cyclic valleys (factorized route).
print()
print("members of S_5 with k fixed points and i cyclic valleys:")
for k in range(5, -1, -1):
    row = [count_snki(5, k, i) for i in range(0, (5 - k) // 2 + 1)]
    print(f"  k={k}: {row}")

# Class sizes always add up to n!.
print()
print("sum over classes of S_6:", sum(class_size(ct) for ct in partitions_of(6)))
