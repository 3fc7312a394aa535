import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclestat import formulas
from cyclestat.algebra import (
    GammaExpansionError,
    MultiPoly,
    TruncationResidueError,
    eulerian,
    gamma_expand,
)
from cyclestat.enumeration import (
    ClassSpec,
    class_size,
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    joint_counts,
    orbit_representatives,
    partitions_of,
)
from cyclestat.formulas import (
    CLAIMS,
    VerificationReport,
    brenti,
    claim_reports,
    corollary2_check,
    corollary3_check,
    corollary4_check,
    egf_snki,
    lemma1_check,
    theorem1_joint,
    theorem2_check,
    theorem2_gamma,
    theorem4_check,
    theorem5_check,
    theorem6_cval,
)
from cyclestat.hopping import orbit
from cyclestat.permutations import CycleType, identity, parse_permutation

from conftest import (
    TruncSeries,
    oracle_catalan,
    oracle_cval,
    oracle_exc,
    oracle_theorem1_radicals,
    oracle_theorem6_radicals,
)

S = MultiPoly.s()
T = MultiPoly.t()
ONE = MultiPoly.one()


# The cached helpers themselves, kept here so they can be cleared while a
# test has patched their names in ``formulas``.
CLASS_CACHES = (formulas._eulerian_product, formulas._lagrange_sum)


def clear_class_caches():
    """Empty the per-class caches of P and Q in ``formulas``."""
    for cached in CLASS_CACHES:
        cached.cache_clear()


@pytest.fixture
def uncached(monkeypatch):
    """``monkeypatch`` on ``formulas``, with the per-class caches of P and
    Q cleared at each ``setattr``, at each ``undo`` and at teardown: a
    cached P or Q would hide the patched helper, and one computed through
    the patch must not outlive it."""

    class Uncached:
        @staticmethod
        def setattr(name, value):
            monkeypatch.setattr(formulas, name, value)
            clear_class_caches()

        @staticmethod
        def undo():
            monkeypatch.undo()
            clear_class_caches()

    yield Uncached
    clear_class_caches()


def pad_product(uncached):
    """Add X^(n+1) to the Eulerian product P(X) of every class of n letters.

    The padded product C^(-K) P(C - 1) is no polynomial in z of degree at
    most K/2, K = n - m_1: its coefficients from z^(n+1) on are nonzero.
    A closed form must read them and must not take them into its
    polynomial."""
    build = formulas._eulerian_product

    def padded(ct):
        p = list(build(ct))
        return p + [0] * (ct.n + 1 - len(p)) + [1]

    uncached.setattr("_eulerian_product", padded)


def cor2_expansions(ct):
    """Gamma expansion of each s-coefficient of the enumerated joint
    distribution about (n-k)/2, the numbers Corollary 2 reads."""
    joint = dist_joint(ClassSpec.of_cycle_type(ct), route="enumerate")
    m = ct.n - ct.fixed_point_count
    return [
        gamma_expand(joint.coefficient_of_s(i), m) for i in range(joint.s_degree() + 1)
    ]


class TestBrenti:
    def test_single_cycle_gives_shifted_eulerian(self):
        assert brenti(CycleType((3,))) == T + T**2
        # the (n)-class polynomial is the previous Eulerian polynomial:
        # (n!/n) * A_(n-1)(t)/(n-1)! = A_(n-1)(t)
        for n in range(2, 7):
            assert brenti(CycleType((n,))) == eulerian(n - 1)

    def test_all_fixed_points(self):
        assert brenti(CycleType((1, 1, 1, 1))) == ONE

    def test_coefficient_sum_is_class_size(self):
        for text in ["1,5,5", "2,2", "1,2,2,4", "3,4"]:
            ct = CycleType.from_text(text)
            assert brenti(ct).evaluate(1, 1) == class_size(ct)

    def test_matches_enumeration_small(self):
        for n in range(0, 7):
            for ct in partitions_of(n):
                spec = ClassSpec.of_cycle_type(ct)
                assert brenti(ct) == dist_exc(spec, route="enumerate")


class TestTheorem1:
    def test_trivial_cases(self):
        assert theorem1_joint(CycleType(())) == ONE
        assert theorem1_joint(CycleType((1, 1, 1))) == ONE

    def test_three_cycle(self):
        assert theorem1_joint(CycleType((3,))) == S * T + S * T**2

    def test_matches_enumeration_small(self):
        for n in range(0, 7):
            for ct in partitions_of(n):
                spec = ClassSpec.of_cycle_type(ct)
                assert theorem1_joint(ct) == dist_joint(spec, route="enumerate")

    def test_residue_check_sees_degree_n_plus_1(self, uncached):
        # The residue check must read the coefficients above K/2.
        ct = CycleType((1, 3, 4))
        pad_product(uncached)
        with pytest.raises(TruncationResidueError):
            theorem1_joint(ct)

    def test_headline_class(self):
        ct = CycleType((1, 5, 5))
        poly = theorem1_joint(ct)
        row2 = poly.coefficient_of_s(2)
        assert row2 == MultiPoly(
            {
                (0, 2): 1386,
                (0, 3): 8316,
                (0, 4): 20790,
                (0, 5): 27720,
                (0, 6): 20790,
                (0, 7): 8316,
                (0, 8): 1386,
            }
        )
        assert poly.coefficient(3, 5) == 133056
        assert poly.coefficient(4, 4) == 88704
        assert poly.evaluate(1, 1) == 798336


class TestTheorem6:
    def test_trivial_cases(self):
        assert theorem6_cval(CycleType((1, 1))) == ONE

    def test_three_cycle(self):
        assert theorem6_cval(CycleType((3,))) == 2 * T

    def test_matches_enumeration_small(self):
        for n in range(0, 7):
            for ct in partitions_of(n):
                spec = ClassSpec.of_cycle_type(ct)
                assert theorem6_cval(ct) == dist_cval(spec, route="enumerate")

    def test_residue_check_sees_degree_n_plus_1(self, uncached):
        ct = CycleType((1, 3, 4))
        pad_product(uncached)
        with pytest.raises(TruncationResidueError):
            theorem6_cval(ct)

    def test_headline_class(self):
        assert theorem6_cval(CycleType((1, 5, 5))) == MultiPoly(
            {(0, 2): 88704, (0, 3): 354816, (0, 4): 354816}
        )


class TestResidueReach:
    """Every class's residue check reads each Q_a with K/2 < a <= deg P + 2,
    so a fault that reaches a single one of them raises, for each class,
    not only for the one that ``pad_product`` pads; Q_a above that range
    is never computed. The fault adds 1 to c(a - J, 2J - K) at the lowest
    J with P_J != 0, which only Q_a reads. The empty class, n = 0, takes
    the same route: its product is P = 1."""

    @pytest.mark.parametrize(
        "closed_form", [theorem1_joint, theorem6_cval], ids=["theorem1", "theorem6"]
    )
    def test_every_class_to_twelve(self, uncached, closed_form):
        catalan_power = formulas._catalan_power
        for n in range(0, 13):
            for ct in partitions_of(n):
                p = formulas._eulerian_product(ct)
                k = n - ct.fixed_point_count
                low = next(j for j, c in enumerate(p) if c)
                expected = closed_form(ct)
                for a in range(k // 2 + 1, len(p) + 3):

                    def faulty(m, r, fault=(a - low, 2 * low - k)):
                        return catalan_power(m, r) + ((m, r) == fault)

                    uncached.setattr("_catalan_power", faulty)
                    if a <= len(p) + 1:  # a <= deg P + 2
                        with pytest.raises(TruncationResidueError):
                            closed_form(ct)
                    else:
                        assert closed_form(ct) == expected, ct
                    uncached.undo()


class TestClassCaches:
    """P and Q are built once per class per process and shared by
    ``brenti``, Theorems 1 and 6: a route reads the same polynomial
    whether it builds them or finds them built by the others."""

    ROUTES = {"brenti": brenti, "theorem1": theorem1_joint, "theorem6": theorem6_cval}

    @pytest.mark.parametrize("name", ROUTES)
    def test_cold_and_warm_routes_agree_to_twelve(self, name):
        route = self.ROUTES[name]
        others = [other for other in self.ROUTES.values() if other is not route]
        for n in range(0, 13):
            for ct in partitions_of(n):
                clear_class_caches()
                cold = route(ct)
                clear_class_caches()
                for other in others:
                    other(ct)
                assert route(ct) == cold, ct

    def test_helpers_return_tuples(self):
        for ct in partitions_of(7):
            p = formulas._eulerian_product(ct)
            k, q = formulas._lagrange_sum(ct)
            assert type(p) is tuple and all(type(c) is int for c in p), ct
            assert type(k) is int and type(q) is tuple, ct
            assert all(type(c) is int for c in q), ct

    def test_theorem6_reads_the_q_of_theorem1(self):
        ct = CycleType((2, 3, 3, 5))
        clear_class_caches()
        theorem1_joint(ct)
        misses = formulas._lagrange_sum.cache_info().misses
        theorem6_cval(ct)
        assert formulas._lagrange_sum.cache_info().misses == misses


class TestRadicals:
    """The paper's substitution series, built literally with square roots
    by the ``tests/conftest.py`` oracles on that file's own truncated
    series, are the Catalan-series forms that the closed forms sum in
    integers, and the closed forms equal the paper's formulas evaluated
    in those series."""

    ORDER = 14

    def test_theorem1_substitutions_are_catalan(self):
        u, v = oracle_theorem1_radicals(self.ORDER)
        z = TruncSeries(S * T, v.order) / (ONE + T) ** 2
        catalan = oracle_catalan(z)
        assert v.order >= 12
        assert v == catalan - 1
        core = (1 + u) / (1 + u * v)
        assert core == TruncSeries(ONE + T, v.order) * catalan.inverse()

    def test_theorem6_substitutions_are_catalan(self):
        root, w = oracle_theorem6_radicals(self.ORDER)
        assert w.order >= 12
        assert w == oracle_catalan(TruncSeries(T, w.order)) - 1
        catalan = oracle_catalan(TruncSeries(T, root.order))
        assert 1 + root == 2 * catalan.inverse()

    def test_catalan_power_coefficients(self):
        """c(m, r) = [x^m] C(x)^r against the series powers of C for
        |r| <= 20 and m <= 20, including negative r and the band
        1 - 2m <= r <= -m - 1 where the coefficient is 0."""
        catalan = oracle_catalan(TruncSeries(T, 20))
        band = 0
        for r in range(-20, 21):
            power = catalan**r if r >= 0 else catalan.inverse() ** -r
            for m in range(21):
                c = formulas._catalan_power(m, r)
                assert c == power.terms.get((0, m), 0), (m, r)
                if 1 - 2 * m <= r <= -m - 1:
                    band += 1
                    assert c == 0, (m, r)
                elif m == 0 or r != 0:
                    assert c != 0, (m, r)
        assert band == 90

    @staticmethod
    def literal(ct, core, x, order):
        """(n!/z_lambda) core^(n - m_1) prod [A_(i-1)(x)/(i-1)!]^(m_i) as
        a series at the given order, each A_d(x) summed term by term."""
        z_lambda = math.prod(
            size**mult * math.factorial(mult) for size, mult in ct.multiplicities.items()
        )
        product = TruncSeries(ONE, order) * core ** (
            ct.n - ct.fixed_point_count
        )
        for size, mult in ct.multiplicities.items():
            a_of_x = TruncSeries({}, order)
            for (_, j), c in eulerian(size - 1).terms.items():
                a_of_x = a_of_x + c * x**j
            product = product * (a_of_x / math.factorial(size - 1)) ** mult
        return product * Fraction(math.factorial(ct.n), z_lambda)

    def test_closed_forms_are_the_papers_formulas(self):
        """Theorems 1 and 6 evaluated as the paper writes them, for every
        class with n <= 7, at order n + 4: the radicals leave order n + 2
        (Theorem 1) or n + 3 (Theorem 6), and polynomial(n) requires the
        degrees above n to vanish."""
        for n in range(0, 8):
            u, v = oracle_theorem1_radicals(n + 4)
            root, w = oracle_theorem6_radicals(n + 4)
            for ct in partitions_of(n):
                joint = self.literal(ct, (1 + u) / (1 + u * v), v, v.order)
                assert joint.polynomial(n) == theorem1_joint(ct).terms, ct
                # At t = 4x: the coefficient of x^k is 4^k that of t^k.
                at_4x = self.literal(ct, 1 + root, w, w.order).polynomial(n)
                cval = MultiPoly(
                    {(0, k): c / 4**k for (_, k), c in at_4x.items()}
                )
                assert cval == theorem6_cval(ct), ct


class TestBeyondEnumeration:
    """The closed forms against the factorized route where enumeration is
    out of reach; both already match enumeration for n <= 8."""

    @staticmethod
    def assert_routes_agree(ct):
        spec = ClassSpec.of_cycle_type(ct)
        assert theorem1_joint(ct) == dist_joint(spec), ct
        assert theorem6_cval(ct) == dist_cval(spec), ct

    def test_every_class_of_nine(self):
        for ct in partitions_of(9):
            self.assert_routes_agree(ct)

    def test_every_class_of_ten(self):
        for ct in partitions_of(10):
            self.assert_routes_agree(ct)

    def test_every_class_eleven_to_fourteen(self):
        for n in range(11, 15):
            for ct in partitions_of(n):
                self.assert_routes_agree(ct)

    def test_every_class_fifteen_and_sixteen(self):
        for n in (15, 16):
            for ct in partitions_of(n):
                self.assert_routes_agree(ct)

    def test_every_class_of_seventeen(self):
        for ct in partitions_of(17):
            self.assert_routes_agree(ct)

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_every_class_eighteen_to_twenty(self, n):
        for ct in partitions_of(n):
            self.assert_routes_agree(ct)

    def test_single_cycles(self):
        # Both sides multiply over cycles, so a class-level theorem
        # reduces to these factors.
        for m in range(10, 41):
            self.assert_routes_agree(CycleType((m,)))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(10, 14).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    def test_random_classes_to_fourteen(self, ct):
        self.assert_routes_agree(ct)
        assert brenti(ct) == dist_exc(ClassSpec.of_cycle_type(ct)), ct

    @pytest.mark.parametrize("n", [21, 22, 23])
    def test_gamma_positivity_twenty_one_to_twenty_three(self, n):
        """Theorem 2 read off the closed form: each Q_a, a signed sum of
        Catalan binomials, is a nonnegative integer, and the orbits it
        counts, of 2^(K-2a) members each, make up the class."""
        for ct in partitions_of(n):
            k, q = formulas._lagrange_sum(ct)
            assert all(type(c) is int and c >= 0 for c in q), ct
            assert sum(c * 2 ** (k - 2 * a) for a, c in enumerate(q)) == class_size(ct), ct

    def test_egf_every_cell_to_twenty(self):
        """All 945 (n, k, i) cells with n <= 20 against one factorized
        count per (n, k) stratum, split by cval; an empty cell is absent
        from both sides."""
        counted = {}
        for n in range(1, 21):
            for k in range(n + 1):
                for (i, _), count in joint_counts(ClassSpec.with_fixed_points(n, k)).items():
                    counted[(n, k, i)] = counted.get((n, k, i), 0) + count
        assert egf_snki(20) == counted

    def test_strata_three_routes_to_twenty(self):
        """Every (n, k) stratum with n <= 20 by three routes: A, the
        exponential formula over single-cycle closed forms alone,
        C(n, k) D_(n-k) with D_m = sum_(j>=2) C(m-1, j-1) C_j D_(m-j) on
        j!-scaled integers; B, the factorized dist_joint; C, per
        (n, k, a) cell, Q_a 2^(K-2a) summed over the classes with m_1 = k,
        against egf_snki. On each stratum, with the counts c_i of its
        cells read from egf_snki, Corollaries 3 and 4 and Theorem 5's
        s = 1 form, written out; and Theorem 4's cleared identity over
        the stratum's (cval, exc) counts N,

          sum N t^exc (1+s)^m
            = sum N (s+t)^(exc-cval) (1+st)^(m-cval-exc) t^cval (1+s)^(2 cval),

        read at t = 2^82, s = t^(m+1). Both sides have s- and t-degree at
        most m and nonnegative coefficients summing to 2^m times the
        stratum's size, below 2^82, so s^i t^j lands alone on the base-2^82
        digit i(m+1) + j: equal readings are equal polynomials."""
        cycles = [theorem1_joint(CycleType((j,))) if j > 1 else None for j in range(21)]
        fixed_point_free = [ONE]
        for m in range(1, 21):
            terms = (
                math.comb(m - 1, j - 1) * cycles[j] * fixed_point_free[m - j]
                for j in range(2, m + 1)
            )
            fixed_point_free.append(sum(terms, MultiPoly()))
        cells = {}
        for n in range(1, 21):
            for ct in partitions_of(n):
                k, joint = ct.fixed_point_count, theorem1_joint(ct)
                for a in range((n - k) // 2 + 1):
                    q = joint.coefficient(a, a) * 2 ** (n - k - 2 * a)
                    cells[(n, k, a)] = cells.get((n, k, a), 0) + q
        table = egf_snki(20)
        assert {cell: count for cell, count in cells.items() if count} == table

        powers = [(1 + T) ** e for e in range(21)]
        digit = 2**82

        @lru_cache(maxsize=None)
        def theorem4_term(m, cval, exc):
            t, s = digit, digit ** (m + 1)
            return (
                (s + t) ** (exc - cval)
                * (1 + s * t) ** (m - cval - exc)
                * t**cval
                * (1 + s) ** (2 * cval)
            )

        strata = 0
        for n in range(1, 21):
            for k in range(n + 1):
                m = n - k
                stratum = math.comb(n, k) * fixed_point_free[m]
                assert stratum == dist_joint(ClassSpec.with_fixed_points(n, k)), (n, k)
                counts = stratum.terms
                assert 2**m * sum(counts.values()) < digit
                lhs = sum(c * digit**exc for (_, exc), c in counts.items())
                rhs = sum(c * theorem4_term(m, *key) for key, c in counts.items())
                assert lhs * (1 + digit ** (m + 1)) ** m == rhs, (n, k)
                rows = [stratum.coefficient_of_s(i) for i in range(m // 2 + 1)]
                exc = sum(rows, MultiPoly())
                cor3, thm5 = MultiPoly(), MultiPoly()
                for i, row in enumerate(rows):
                    count = table.get((n, k, i), 0)
                    orbits, rest = divmod(count, 2 ** (m - 2 * i))
                    assert not rest, (n, k, i)
                    term = T**i * powers[m - 2 * i]
                    assert row == orbits * term, (n, k, i)
                    cor3 += orbits * term
                    thm5 += count * 4**i * term
                assert exc == cor3, (n, k)
                assert exc * 2**m == thm5, (n, k)
                strata += 1
        assert strata == 230

    def test_theorem2_and_corollary2_every_class_to_fourteen(self):
        """Brenti's product read in the gamma basis against the factorized
        members without a cyclic double ascent, and each s^i row of the
        factorized joint distribution against its gamma term."""
        classes = 0
        for n in range(1, 15):
            for ct in partitions_of(n):
                spec = ClassSpec.of_cycle_type(ct)
                m = n - ct.fixed_point_count
                counts = joint_counts(spec)
                gammas = [counts.get((i, i), 0) for i in range(m // 2 + 1)]
                assert gamma_expand(brenti(ct), m).gammas == tuple(gammas), ct
                joint = dist_joint(spec)
                for i, gamma in enumerate(gammas):
                    row = gamma * T**i * (1 + T) ** (m - 2 * i)
                    assert joint.coefficient_of_s(i) == row, (ct, i)
                classes += 1
        assert classes == 507

    def test_corollary2_rows_of_theorem1_every_class_to_sixteen(self):
        """Each s^i row of the radical substitution itself against
        N_i t^i (1+t)^(m-2i), with N_i the factorized count at (i, i)."""
        classes = 0
        for n in range(1, 17):
            for ct in partitions_of(n):
                m = n - ct.fixed_point_count
                counts = joint_counts(ClassSpec.of_cycle_type(ct))
                joint = theorem1_joint(ct)
                assert joint.s_degree() <= m // 2, ct
                for i in range(m // 2 + 1):
                    row = counts.get((i, i), 0) * T**i * (1 + T) ** (m - 2 * i)
                    assert joint.coefficient_of_s(i) == row, (ct, i)
                classes += 1
        assert classes == 914


class TestLemma1:
    def test_identity_orbit(self):
        report = lemma1_check(identity(4))
        assert report.passed
        assert report.lhs == ONE and report.rhs == ONE

    def test_three_cycle_orbit(self):
        report = lemma1_check(parse_permutation("231"))
        assert report.passed
        assert report.lhs == T * (1 + T) * (1 + S) ** 3

    def test_running_example_orbit(self):
        report = lemma1_check(parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)"))
        assert report.passed

    def test_every_orbit_small(self):
        for n in range(1, 6):
            for ct in partitions_of(n):
                for p in orbit_representatives(ClassSpec.of_cycle_type(ct)):
                    assert lemma1_check(p).passed

    def test_memoized_sides_follow_the_measured_counts(self, monkeypatch):
        # The first check memoizes sigma's two sides. An orbit missing a
        # member has other counts, so it must get its own sides and fail
        # at their first differing coefficient, not reuse the passing ones.
        sigma = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
        assert lemma1_check(sigma).passed
        members = orbit(sigma, collect_members=True).members
        dropped = (oracle_cval(members[0].word), oracle_exc(members[0].word))
        measure = formulas.orbit_counts

        def short_counts(p):
            fix, counts = measure(p)
            counts = dict(counts)
            counts[dropped] -= 1
            return fix, {key: c for key, c in counts.items() if c}

        monkeypatch.setattr(formulas, "orbit_counts", short_counts)
        report = lemma1_check(sigma)
        assert not report.passed

        m = sigma.n - 2  # two fixed points, 6 and 8
        lhs = rhs = MultiPoly.zero()
        for p in members[1:]:
            exc, cval = oracle_exc(p.word), oracle_cval(p.word)
            lhs = lhs + T**exc * (ONE + S) ** m
            rhs = rhs + (
                (S + T) ** (exc - cval)
                * (ONE + S * T) ** (m - cval - exc)
                * T**cval
                * (ONE + S) ** (2 * cval)
            )
        assert (report.lhs, report.rhs) == (lhs, rhs)
        first = min(
            key
            for key in lhs.terms.keys() | rhs.terms.keys()
            if lhs.coefficient(*key) != rhs.coefficient(*key)
        )
        assert report.witness == {
            "monomial": {"s": first[0], "t": first[1]},
            "lhs": str(lhs.coefficient(*first)),
            "rhs": str(rhs.coefficient(*first)),
        }


class TestTheorem2:
    def test_derangements_of_three(self):
        spec = ClassSpec.with_fixed_points(3, 0)
        data = theorem2_gamma(spec)
        assert gamma_expand(dist_exc(spec), 3).gammas == (Fraction(0), Fraction(1))
        assert data.by_no_double_ascent == (0, 1)
        assert data.by_orbit_scaling == (Fraction(0), Fraction(1))
        assert theorem2_check(spec).passed

    def test_identity_class(self):
        spec = ClassSpec.parse("1,1,1,1")
        assert gamma_expand(dist_exc(spec), 0).gammas == (Fraction(1),)
        assert theorem2_check(spec).passed

    def test_nine_letter_class(self):
        spec = ClassSpec.parse("1,2,2,4")
        assert theorem2_check(spec).passed
        expansion = gamma_expand(dist_exc(spec), 8)
        assert expansion.reconstruct() == dist_exc(spec)

    def test_consistency_small(self):
        for n in range(1, 7):
            for ct in partitions_of(n):
                assert theorem2_check(ClassSpec.of_cycle_type(ct)).passed
            for k in range(0, n + 1):
                assert theorem2_check(ClassSpec.with_fixed_points(n, k)).passed

    def test_orbit_power_divisibility(self):
        # 2^(n-k-2i) divides the number of members with i cyclic valleys
        for n in range(1, 7):
            for k in range(0, n + 1):
                data = theorem2_gamma(ClassSpec.with_fixed_points(n, k))
                assert all(g.denominator == 1 for g in data.by_orbit_scaling)

    def test_check_report(self):
        report = theorem2_check(ClassSpec.parse("n=4,k=0"))
        assert report.passed
        assert report.to_json_record()["verdict"] == "pass"

    @pytest.mark.parametrize(
        "check",
        [
            lambda: theorem2_check(ClassSpec.parse("n=3,k=0")),
            lambda: theorem5_check(ClassSpec.parse("n=3,k=0")),
            lambda: corollary3_check(3, 0),
            lambda: corollary4_check(3, 0, 1),
        ],
        ids=["theorem2", "theorem5", "cor3", "cor4"],
    )
    def test_asymmetric_exc_fails_with_a_witness(self, monkeypatch, check):
        # No gamma expansion exists about 3/2; the checks report, not raise.
        monkeypatch.setattr("cyclestat.formulas.dist_exc", lambda spec, route: T)
        report = check()
        assert not report.passed
        assert report.witness is not None

    def test_disagreeing_readings_are_the_two_sides(self, monkeypatch):
        # One member with exc 1 and cval 0: no no-double-ascent count,
        # but a quarter of an orbit.
        monkeypatch.setattr(
            "cyclestat.formulas.joint_counts", lambda spec, route: {(0, 1): 1}
        )
        report = theorem2_check(ClassSpec.parse("n=2,k=0"))
        assert not report.passed
        assert report.lhs == MultiPoly.zero()
        assert report.rhs == (ONE + T) ** 2 * Fraction(1, 4)

    @pytest.mark.parametrize("text", ["1,2,2,4", "n=6,k=1"])
    def test_closed_form_gammas_are_a_third_reading(self, monkeypatch, text):
        # One Q_a of each class off by one: the enumerated readings still
        # agree, so the report compares the no-double-ascent
        # reconstruction, dist_exc itself, with the closed form's.
        spec = ClassSpec.parse(text)
        lagrange_sum = formulas._lagrange_sum

        def faulty(ct):
            k, q = lagrange_sum(ct)
            return k, q[:1] + (q[1] + 1,) + q[2:]

        monkeypatch.setattr(formulas, "_lagrange_sum", faulty)
        report = theorem2_check(spec)
        assert report.verdict == "fail"
        m = spec.n - spec.fixed_point_count
        assert report.lhs == dist_exc(spec, route="enumerate")
        assert report.rhs - report.lhs == len(spec.cycle_types()) * T * (1 + T) ** (m - 2)
        assert report.witness["monomial"] == {"s": 0, "t": 1}


class TestCorollaries:
    def test_cor3_derangements_three(self):
        report = corollary3_check(3, 0)
        assert report.passed
        assert report.rhs == T * (1 + T)

    def test_cor3_all_fixed(self):
        for n in range(1, 6):
            report = corollary3_check(n, n)
            assert report.passed and report.lhs == ONE

    def test_cor3_derangements_four(self):
        assert corollary3_check(4, 0).passed

    def test_cor4_examples(self):
        report = corollary4_check(3, 0, 1)
        assert report.passed and report.lhs == T + T**2
        for n in range(1, 6):
            assert corollary4_check(n, n, 0).passed
        assert corollary4_check(5, 1, 1).passed

    def test_cor2_single_cycle(self):
        ct = CycleType((3,))
        expansions = cor2_expansions(ct)
        assert [e.gammas for e in expansions] == [
            (Fraction(0),) * 2,
            (Fraction(0), Fraction(1)),
        ]
        assert corollary2_check(ct).passed

    def test_cor2_headline_class(self):
        ct = CycleType((1, 5, 5))
        expansions = cor2_expansions(ct)
        nonzero = {
            i: e.gammas for i, e in enumerate(expansions) if any(e.gammas)
        }
        assert set(nonzero) == {2, 3, 4}
        assert nonzero[2][2] == 1386
        assert nonzero[3][3] == 22176
        assert nonzero[4][4] == 88704
        assert all(g >= 0 for e in expansions for g in e.gammas)
        assert corollary2_check(ct).passed

    def test_cor2_small(self):
        for n in range(1, 7):
            for ct in partitions_of(n):
                assert corollary2_check(ct).passed, ct

    def test_cor2_residual_keeps_the_s_degree(self, monkeypatch):
        # An asymmetric s^3 coefficient must be reported at s^3, not s^0.
        monkeypatch.setattr(
            "cyclestat.formulas.dist_joint", lambda spec, route: S**3 * (ONE + T)
        )
        report = corollary2_check(CycleType((3,)))
        assert not report.passed
        support = report.lhs.terms
        assert support and all(ds == 3 for ds, _ in support)


class TestTheorems4And5:
    def test_single_orbit_class(self):
        report = theorem4_check(ClassSpec.parse("3"))
        assert report.passed
        assert report.lhs == T * (1 + T) * (1 + S) ** 3

    def test_identity_class(self):
        report = theorem4_check(ClassSpec.parse("1,1,1"))
        assert report.passed and report.lhs == ONE

    def test_derangements_four(self):
        assert theorem4_check(ClassSpec.parse("n=4,k=0")).passed

    def test_lemma1_summed_over_orbits(self):
        # Theorem 4 is Lemma 1 summed over the orbits of the family
        spec = ClassSpec.parse("1,2,3")
        orbits = [lemma1_check(p) for p in orbit_representatives(spec)]
        whole = theorem4_check(spec)
        assert sum((r.lhs for r in orbits), MultiPoly.zero()) == whole.lhs
        assert sum((r.rhs for r in orbits), MultiPoly.zero()) == whole.rhs

    def test_theorem5_derangements_three(self):
        report = theorem5_check(ClassSpec.parse("n=3,k=0"))
        assert report.passed
        assert report.lhs == (T + T**2) * 8
        assert report.rhs == 8 * T * (1 + T)

    def test_theorem5_small(self):
        for n in range(1, 7):
            for ct in partitions_of(n):
                assert theorem5_check(ClassSpec.of_cycle_type(ct)).passed
            for k in range(0, n + 1):
                assert theorem5_check(ClassSpec.with_fixed_points(n, k)).passed

    def test_theorem4_small(self):
        for n in range(1, 6):
            for ct in partitions_of(n):
                assert theorem4_check(ClassSpec.of_cycle_type(ct)).passed
            for k in range(0, n + 1):
                assert theorem4_check(ClassSpec.with_fixed_points(n, k)).passed


class TestEgf:
    def test_examples(self):
        table = egf_snki(4)
        assert table[(3, 0, 1)] == 2
        assert table[(3, 1, 1)] == 3
        assert all(table[(n, n, 0)] == 1 for n in range(1, 5))

    def test_matches_enumeration(self):
        table = egf_snki(6)
        for n in range(1, 7):
            for k in range(0, n + 1):
                for i in range(0, (n - k) // 2 + 1):
                    assert table.get((n, k, i), 0) == count_snki(
                        n, k, i, route="enumerate"
                    )

    def test_row_sums(self):
        """Each row sums to n!, its k = 0 column to the subfactorial !n
        (the derangements, by !n = (n-1)(!(n-1) + !(n-2))), and the
        identity is the one permutation with n fixed points, to n = 24."""
        table = egf_snki(24)
        derangements = [1, 0]
        for n in range(2, 25):
            derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
        for n in range(1, 25):
            total = sum(v for (m, _, _), v in table.items() if m == n)
            assert total == math.factorial(n), n
            column = sum(v for (m, k, _), v in table.items() if (m, k) == (n, 0))
            assert column == derangements[n], n
            assert table[(n, n, 0)] == 1, n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            egf_snki(0)

    def test_negative_count_raises(self, monkeypatch):
        """A sign slip in the product D_m d_(j-m) gives d_1 = -2."""
        times = formulas._times
        monkeypatch.setattr(formulas, "_times", lambda a, b: [-c for c in times(a, b)])
        with pytest.raises(ArithmeticError, match="negative"):
            egf_snki(3)


class TestVerificationReport:
    def test_witness_on_failure(self):
        report = VerificationReport(
            claim="demo",
            instance={"n": 1},
            lhs=T + T**2,
            rhs=T + 2 * T**2,
        )
        assert not report.passed
        assert report.verdict == "fail"
        assert report.witness == {
            "monomial": {"s": 0, "t": 2},
            "lhs": "1",
            "rhs": "2",
        }
        record = report.to_json_record()
        assert record["verdict"] == "fail" and "witness" in record
        # with differences at t^2 and t^3 the witness is the first, t^2
        twice = VerificationReport("demo", {}, T**2 + T**3, 2 * T**2 + 3 * T**3)
        assert twice.witness["monomial"] == {"s": 0, "t": 2}

    def test_no_witness_on_pass(self):
        report = VerificationReport("demo", {}, T, T)
        assert report.passed and report.witness is None
        assert "witness" not in report.to_json_record()


class TestClaimCatalogue:
    @pytest.mark.parametrize("claim", CLAIMS)
    def test_every_claim_checks_and_passes_to_n_4(self, claim):
        lambdas = [ct for n in range(0, 5) for ct in partitions_of(n)]
        reports = list(claim_reports(claim, 4, lambdas))
        assert reports
        for report in reports:
            assert isinstance(report, VerificationReport)
            assert report.claim == claim and report.passed, report.instance

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="theorem99"):
            list(claim_reports("theorem99", 4, []))

    # The one name of ``formulas`` each claim's row calls: a closed form,
    # a check function or the EGF table.
    ROW_NAMES = {
        "brenti": "brenti",
        "theorem1": "theorem1_joint",
        "lemma1": "lemma1_check",
        "theorem2": "theorem2_check",
        "theorem4": "theorem4_check",
        "theorem5": "theorem5_check",
        "theorem6": "theorem6_cval",
        "cor2": "corollary2_check",
        "cor3": "corollary3_check",
        "cor4": "corollary4_check",
        "egf": "egf_snki",
    }

    @pytest.mark.parametrize("claim", CLAIMS)
    def test_each_row_reads_its_name_when_it_runs(self, claim, monkeypatch):
        name = self.ROW_NAMES[claim]
        real = getattr(formulas, name)
        if name == "egf_snki":
            # no fixed-point-free permutation is without a cyclic valley
            def stub(n_max):
                return {**real(n_max), (n_max, 0, 0): 1}

        elif name.endswith("_check"):
            def stub(*instance):
                return VerificationReport(claim, {}, MultiPoly.one(), MultiPoly.zero())

        else:
            def stub(ct):
                return real(ct) + MultiPoly.monomial(2, 3)

        monkeypatch.setattr(formulas, name, stub)
        lambdas = [ct for n in range(0, 4) for ct in partitions_of(n)]
        assert not all(report.passed for report in claim_reports(claim, 3, lambdas))


class TestMixedFixedPointControl:
    """Hop-invariant sets mixing fixed-point counts need not be
    gamma-expandable about any single center, even though each
    fixed-point stratum is."""

    def test_mixed_union_fails_every_center(self):
        mixed = dist_exc(ClassSpec.with_fixed_points(3, 0)) + dist_exc(
            ClassSpec.with_fixed_points(3, 1)
        )
        assert mixed == 4 * T + T**2
        for m in range(2, 9):
            with pytest.raises(GammaExpansionError):
                from cyclestat.algebra import gamma_expand

                gamma_expand(mixed, m)

    def test_strata_expand_individually(self):
        for k in (0, 1):
            assert theorem2_check(ClassSpec.with_fixed_points(3, k)).passed

    def test_full_group_decomposes_by_fixed_points(self):
        for n in range(2, 7):
            total = MultiPoly.zero()
            for k in range(0, n + 1):
                total = total + dist_exc(ClassSpec.with_fixed_points(n, k))
            assert total * T == eulerian(n)
