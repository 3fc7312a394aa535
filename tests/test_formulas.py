import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclestat import formulas
from cyclestat.algebra import (
    GammaExpansionError,
    MultiPoly,
    TruncationResidueError,
    TruncSeries,
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

from conftest import oracle_cval, oracle_exc

S = MultiPoly.s()
T = MultiPoly.t()
ONE = MultiPoly.one()


def pad_product(monkeypatch):
    """Add t^(n+1) to every Brenti product of a class of n letters.

    Only degree n + 1 shows this fault, so a closed form must carry that
    degree in its series and must not take it into its polynomial. (A
    monomial of degree n + 1 in the core would reach the product only
    above degree n + 1: the factors A_d(x), d >= 1, have no constant
    term.)"""
    build = formulas._brenti_product

    def padded(ct, core, factor):
        return build(ct, core, factor) + T ** (ct.n + 1)

    monkeypatch.setattr(formulas, "_brenti_product", padded)


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
            assert brenti(ct).coefficient_sum() == class_size(ct)

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

    def test_residue_check_sees_degree_n_plus_1(self, monkeypatch):
        # The product must keep a degree above n for to_poly(n) to read.
        ct = CycleType((1, 3, 4))
        pad_product(monkeypatch)
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
        assert poly.coefficient_sum() == 798336


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

    def test_residue_check_sees_degree_n_plus_1(self, monkeypatch):
        ct = CycleType((1, 3, 4))
        pad_product(monkeypatch)
        with pytest.raises(TruncationResidueError):
            theorem6_cval(ct)

    def test_headline_class(self):
        assert theorem6_cval(CycleType((1, 5, 5))) == MultiPoly(
            {(0, 2): 88704, (0, 3): 354816, (0, 4): 354816}
        )


class TestResidueReach:
    """Every class's product reaches ``to_poly(n)`` at its full order, so
    the residue check reads degrees above n for each class, not only for
    the one that ``pad_product`` pads. (The empty class, n = 0, has no
    Eulerian factor, so Theorem 6's product keeps its core's order.)"""

    @pytest.mark.parametrize(
        "closed_form, headroom",
        [(theorem1_joint, 2), (theorem6_cval, 3)],
        ids=["theorem1", "theorem6"],
    )
    def test_every_class_to_twelve(self, monkeypatch, closed_form, headroom):
        orders = []
        to_poly = TruncSeries.to_poly

        def recording(self, max_total_degree):
            orders.append(self.order)
            return to_poly(self, max_total_degree)

        monkeypatch.setattr(TruncSeries, "to_poly", recording)
        for n in range(1, 13):
            for ct in partitions_of(n):
                orders.clear()
                closed_form(ct)
                assert orders == [n + headroom], ct


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

    def test_single_cycles(self):
        # Both sides multiply over cycles, so a class-level theorem
        # reduces to these factors.
        for m in range(10, 31):
            self.assert_routes_agree(CycleType((m,)))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(10, 14).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    def test_random_classes_to_fourteen(self, ct):
        self.assert_routes_agree(ct)
        assert brenti(ct) == dist_exc(ClassSpec.of_cycle_type(ct)), ct

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
        assert all(e.positive for e in expansions)
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
        table = egf_snki(6)
        for n in range(1, 7):
            total = sum(v for (m, _, _), v in table.items() if m == n)
            assert total == math.factorial(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            egf_snki(0)


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
