"""Acceptance suite: one test per criterion, one printed line per criterion.

Every comparison is exact (integer/rational equality, zero tolerance).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import random
from itertools import combinations

from cyclestat.algebra import (
    GammaExpansionError,
    MultiPoly,
    eulerian,
    gamma_expand,
)
from cyclestat.enumeration import (
    ClassSpec,
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    orbit_representatives,
    partitions_of,
)
from cyclestat.formulas import (
    brenti,
    corollary2_check,
    corollary3_check,
    corollary4_check,
    egf_snki,
    lemma1_check,
    theorem1_joint,
    theorem2_check,
    theorem6_cval,
)
from cyclestat.hopping import orbit, phi, psi
from cyclestat.permutations import (
    CycleType,
    cycle_type,
    parse_permutation,
    stat_counts,
    stat_sets,
    to_cycle_form,
)

from conftest import all_perms, oracle_foata_word

S = MultiPoly.s()
T = MultiPoly.t()
ONE = MultiPoly.one()

# The eleven-letter showcase polynomial: every coefficient of the joint
# (cval, exc) distribution over the 798,336-member class (1,5,5).
SHOWCASE = MultiPoly(
    {
        (2, 2): 1386,
        (2, 3): 8316,
        (2, 4): 20790,
        (2, 5): 27720,
        (2, 6): 20790,
        (2, 7): 8316,
        (2, 8): 1386,
        (3, 3): 22176,
        (3, 4): 88704,
        (3, 5): 133056,
        (3, 6): 88704,
        (3, 7): 22176,
        (4, 4): 88704,
        (4, 5): 177408,
        (4, 6): 88704,
    }
)


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def all_subsets(letters):
    letters = tuple(letters)
    for r in range(len(letters) + 1):
        yield from (frozenset(c) for c in combinations(letters, r))


def test_criterion_01_showcase_enumeration():
    poly = dist_joint(ClassSpec.parse("1,5,5"), route="enumerate")
    ok = poly == SHOWCASE and poly.evaluate(1, 1) == 798336
    report(ok, "criterion 1: enumerated joint distribution of the 798,336-member class")


def test_criterion_02_showcase_closed_form():
    poly = theorem1_joint(CycleType((1, 5, 5)))
    report(poly == SHOWCASE, "criterion 2: series-evaluated closed form at full scale")


def test_criterion_03_product_formula_oracle():
    bad = [
        str(ct)
        for n in range(0, 9)
        for ct in partitions_of(n)
        if brenti(ct) != dist_exc(ClassSpec.of_cycle_type(ct), route="enumerate")
    ]
    report(not bad, f"criterion 3: product formula vs enumeration, all classes n<=8 {bad}")


def test_criterion_04_dual_route_closed_forms():
    bad = []
    for n in range(0, 9):
        for ct in partitions_of(n):
            spec = ClassSpec.of_cycle_type(ct)
            if theorem1_joint(ct) != dist_joint(spec, route="enumerate"):
                bad.append(("joint", str(ct)))
            if theorem6_cval(ct) != dist_cval(spec, route="enumerate"):
                bad.append(("cval", str(ct)))
    report(not bad, f"criterion 4: both substitution formulas vs enumeration, n<=8 {bad}")


def test_criterion_05_action_property_suite():
    failures = []

    # exhaustive: every permutation and every letter subset, n <= 6
    for n in range(1, 7):
        letters_all = list(all_subsets(range(1, n + 1)))
        for p in all_perms(n):
            s = stat_sets(p)
            ct = cycle_type(p)
            for letters in letters_all:
                q = psi(p, letters)
                sq = stat_sets(q)
                if psi(q, letters) != p:
                    failures.append(("involution", p, letters))
                if sq.cval_set != s.cval_set or sq.cpk_set != s.cpk_set:
                    failures.append(("valleys/peaks", p, letters))
                if sq.fix_set != s.fix_set:
                    failures.append(("fixed points", p, letters))
                if sq.cdasc_set != (s.cdasc_set - letters) | (letters & s.cddes_set):
                    failures.append(("double ascents", p, letters))
                if sq.cddes_set != (s.cddes_set - letters) | (letters & s.cdasc_set):
                    failures.append(("double descents", p, letters))
                if cycle_type(q) != ct:
                    failures.append(("cycle type", p, letters))

    # commutativity, exhaustive n <= 6
    for n in range(1, 7):
        for p in all_perms(n):
            singles = {x: psi(p, (x,)) for x in range(1, n + 1)}
            for x in range(1, n + 1):
                for y in range(x + 1, n + 1):
                    if psi(singles[x], (y,)) != psi(singles[y], (x,)):
                        failures.append(("commutativity", p, (x, y)))

    # orbit size law and unique representative, exhaustive n <= 6
    for n in range(1, 7):
        for p in all_perms(n):
            c = stat_counts(p)
            rep = orbit(p, collect_members=True)
            if rep.size != 2 ** (n - c.fix - 2 * c.cval):
                failures.append(("orbit size", p, None))
            no_dasc = [m for m in rep.members if stat_counts(m).cdasc == 0]
            if no_dasc != [psi(p, stat_sets(p).cdasc_set)]:
                failures.append(("unique representative", p, None))
            if rep.representative != no_dasc[0]:
                failures.append(("reported representative", p, None))

    # n = 7, 8: every permutation with every singleton, plus seeded random sets
    rng = random.Random(1898)
    for n in (7, 8):
        random_checks = []
        for p in all_perms(n):
            s = stat_sets(p)
            for x in range(1, n + 1):
                q = psi(p, (x,))
                if psi(q, (x,)) != p:
                    failures.append(("involution", p, x))
                sq = stat_sets(q)
                if (
                    sq.cval_set != s.cval_set
                    or sq.cpk_set != s.cpk_set
                    or sq.fix_set != s.fix_set
                ):
                    failures.append(("invariant sets", p, x))
            if rng.random() < 400 / 40320:
                random_checks.append(p)
        for p in random_checks:
            letters = frozenset(x for x in range(1, n + 1) if rng.random() < 0.5)
            s = stat_sets(p)
            q = psi(p, letters)
            sq = stat_sets(q)
            ok = (
                psi(q, letters) == p
                and sq.cdasc_set == (s.cdasc_set - letters) | (letters & s.cddes_set)
                and sq.cddes_set == (s.cddes_set - letters) | (letters & s.cdasc_set)
                and cycle_type(q) == cycle_type(p)
            )
            if not ok:
                failures.append(("random set", p, letters))

    report(not failures, f"criterion 5: action property suite {failures[:3]}")


def test_criterion_06_orbit_identity_every_orbit():
    bad = []
    for n in range(1, 7):
        for ct in partitions_of(n):
            for p in orbit_representatives(ClassSpec.of_cycle_type(ct)):
                if not lemma1_check(p).passed:
                    bad.append(p)
    report(not bad, f"criterion 6: orbit-level cleared identity, all orbits n<=6 {bad}")


def test_criterion_07_gamma_suite():
    failures = []
    for n in range(1, 9):
        for ct in partitions_of(n):
            if not theorem2_check(ClassSpec.of_cycle_type(ct)).passed:
                failures.append(("theorem2", str(ct)))
            if not corollary2_check(ct).passed:
                failures.append(("cor2", str(ct)))
        for k in range(0, n + 1):
            if not theorem2_check(ClassSpec.with_fixed_points(n, k)).passed:
                failures.append(("theorem2", (n, k)))
            if not corollary3_check(n, k).passed:
                failures.append(("cor3", (n, k)))
            for i in range(0, (n - k) // 2 + 1):
                if not corollary4_check(n, k, i).passed:
                    failures.append(("cor4", (n, k, i)))
        # derangement stratum: the k = 0 case in particular
        if not corollary3_check(n, 0).passed:
            failures.append(("derangements", n))
    report(not failures, f"criterion 7: gamma suite n<=8 {failures[:3]}")


def test_criterion_08_generating_function_cross_check():
    table = egf_snki(8)
    bad = []
    for n in range(1, 9):
        for k in range(0, n + 1):
            for i in range(0, (n - k) // 2 + 1):
                if table.get((n, k, i), 0) != count_snki(n, k, i, route="enumerate"):
                    bad.append((n, k, i))
    # no spurious entries either
    for (n, k, i), value in table.items():
        if value and (k > n or i > (n - k) // 2):
            bad.append(("spurious", n, k, i))
    report(not bad, f"criterion 8: generating-function table vs enumeration n<=8 {bad}")


def test_criterion_09_figure_examples():
    ok_phi = str(phi(parse_permutation("834279156"), {6, 7, 8})) == "734289615"
    ok_psi = (
        str(to_cycle_form(psi(parse_permutation("(5,2,3)(8)(9,7,6,4,1)"), {3, 7})))
        == "(5,3,2)(8)(9,6,4,1,7)"
    )
    ok_foata = oracle_foata_word(
        parse_permutation("(4,2)(7,1,6)(8)(9,5,3)").word
    ) == [4, 2, 7, 1, 6, 8, 9, 5, 3]
    # around 7, 834279156 factors as w1 w2 x w4 w5 = 8 342 7 () 9156, and
    # the hop swaps w2 and w4
    ok_fact = str(phi(parse_permutation("834279156"), {7})) == "873429156"
    report(
        ok_phi and ok_psi and ok_foata and ok_fact,
        "criterion 9: displayed word/cycle hopping and factorization examples",
    )


def test_criterion_10_negative_control():
    # A hop-invariant set mixing fixed-point counts: derangements plus
    # one-fixed-point permutations of S_3. Its excedance polynomial is
    # asymmetric, so no single-center gamma expansion exists...
    mixed = dist_exc(ClassSpec.with_fixed_points(3, 0)) + dist_exc(
        ClassSpec.with_fixed_points(3, 1)
    )
    assert mixed == 4 * T + T**2
    not_expandable = True
    for m in range(2, 10):
        try:
            gamma_expand(mixed, m)
            not_expandable = False
        except GammaExpansionError:
            pass

    # ... while each fixed-point stratum expands gamma-positively about
    # its own center, and the strata reassemble the full polynomial.
    strata_ok = all(
        theorem2_check(ClassSpec.with_fixed_points(3, k)).passed
        for k in (0, 1, 3)
    )
    decomposition_ok = True
    for n in range(2, 7):
        total = MultiPoly.zero()
        for k in range(0, n + 1):
            piece = dist_exc(ClassSpec.with_fixed_points(n, k))
            total = total + piece
            expansion = gamma_expand(piece, n - k)
            if not all(g >= 0 and g.denominator == 1 for g in expansion.gammas):
                decomposition_ok = False
        if total * T != eulerian(n):
            decomposition_ok = False

    report(
        not_expandable and strata_ok and decomposition_ok,
        "criterion 10: mixed fixed-point control fails every single center, "
        "per-stratum expansions succeed",
    )
