import hashlib
import math
from collections import Counter
from itertools import permutations as raw_permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclestat.enumeration as enumeration
from cyclestat.algebra import MultiPoly
from cyclestat.enumeration import (
    DEFAULT_CLASS_CAP,
    _cycle_counts,
    _cycle_tables,
    ClassSpec,
    ClassTooLargeError,
    class_cap,
    class_size,
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    iter_class,
    joint_counts,
    orbit_representatives,
    partitions_of,
    z_lambda,
)
from cyclestat.formulas import theorem2_gamma
from cyclestat.permutations import CycleType, cycle_type

from conftest import all_perms, oracle_cval, oracle_cycle_sizes, oracle_exc, oracle_fix

T = MultiPoly.t()
ONE = MultiPoly.one()

ROUTES = ("factorize", "enumerate")

PARTITION_COUNTS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 10: 42}


class TestPartitions:
    def test_counts(self):
        for n, expected in PARTITION_COUNTS.items():
            assert len(partitions_of(n)) == expected

    def test_four(self):
        assert [str(ct) for ct in partitions_of(4)] == [
            "(4)",
            "(1,3)",
            "(2,2)",
            "(1,1,2)",
            "(1,1,1,1)",
        ]

    def test_zero_and_one(self):
        assert [ct.parts for ct in partitions_of(0)] == [()]
        assert [ct.parts for ct in partitions_of(1)] == [(1,)]

    def test_each_exactly_once(self):
        for n in range(0, 10):
            cts = partitions_of(n)
            assert len(set(cts)) == len(cts)
            assert all(ct.n == n for ct in cts)

    def test_negative(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


class TestClassSizes:
    def test_z_lambda_examples(self):
        assert z_lambda(CycleType((1, 5, 5))) == 50
        assert z_lambda(CycleType((1,) * 6)) == math.factorial(6)
        assert z_lambda(CycleType((7,))) == 7

    def test_class_size_examples(self):
        assert class_size(CycleType((1, 5, 5))) == 798336
        assert class_size(CycleType((1, 1, 1))) == 1
        assert class_size(CycleType((3,))) == 2

    def test_sizes_sum_to_factorial(self):
        for n in range(0, 11):
            assert sum(class_size(ct) for ct in partitions_of(n)) == math.factorial(n)


class TestClassSpec:
    def test_parse_partition(self):
        assert ClassSpec.parse("1,5,5").cycle_type == CycleType((1, 5, 5))
        assert ClassSpec.parse("1^1 5^2").cycle_type == CycleType((1, 5, 5))

    def test_parse_strata(self):
        spec = ClassSpec.parse("n=5,k=2")
        assert (spec.n, spec.fixed_points, spec.cval) == (5, 2, None)
        spec = ClassSpec.parse("n=5,k=2,i=1")
        assert (spec.n, spec.fixed_points, spec.cval) == (5, 2, 1)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            ClassSpec.parse("n=5,q=2")
        with pytest.raises(ValueError):
            ClassSpec.parse("k=2")

    @pytest.mark.parametrize("text, key", [("n=5,k=2,k=3", "k"), ("n=5,n=6,k=1", "n")])
    def test_parse_rejects_repeated_keys(self, text, key):
        with pytest.raises(ValueError, match=f"repeated key '{key}'"):
            ClassSpec.parse(text)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ClassSpec.with_fixed_points(3, 4)
        with pytest.raises(ValueError):
            ClassSpec.with_fixed_points_and_valleys(4, 0, 3)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n": -1, "fixed_points": 0}, "nonnegative"),
            ({"n": 3, "cycle_type": CycleType((3,)), "fixed_points": 0}, "excludes"),
            ({"n": 4, "cycle_type": CycleType((3,))}, "not a partition of 4"),
            ({"n": 3}, "need a cycle type"),
        ],
        ids=["negative-n", "two-shapes", "wrong-n", "no-shape"],
    )
    def test_shape_validation(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ClassSpec(**fields)

    def test_covered_types(self):
        spec = ClassSpec.with_fixed_points(5, 1)
        types = {str(ct) for ct in spec.cycle_types()}
        assert types == {"(1,4)", "(1,2,2)"}


class TestIterClass:
    def test_three_cycles(self):
        members = sorted(str(p) for p in iter_class(ClassSpec.parse("3")))
        assert members == ["231", "312"]

    def test_full_fix_stratum(self):
        members = list(iter_class(ClassSpec.with_fixed_points(3, 3)))
        assert [str(p) for p in members] == ["123"]

    def test_valley_refinement(self):
        members = sorted(
            str(p) for p in iter_class(ClassSpec.with_fixed_points_and_valleys(3, 0, 1))
        )
        assert members == ["231", "312"]

    def test_counts_and_types_match(self):
        for n in range(0, 7):
            for ct in partitions_of(n):
                members = list(iter_class(ClassSpec.of_cycle_type(ct)))
                assert len(members) == class_size(ct)
                assert len({m.word for m in members}) == len(members)
                assert all(cycle_type(m) == ct for m in members)

    def test_agrees_with_filtering_all_permutations(self):
        # The members are built unvalidated, so each yielded word must be
        # one of itertools.permutations, once.
        for n in range(0, 8):
            by_type: dict[tuple[int, ...], list] = {}
            for word in raw_permutations(range(1, n + 1)):
                by_type.setdefault(oracle_cycle_sizes(word), []).append(word)
            for ct in partitions_of(n):
                ours = [m.word for m in iter_class(ClassSpec.of_cycle_type(ct))]
                assert sorted(ours) == by_type.get(ct.parts, []), ct

    def test_guardrail(self, monkeypatch):
        spec = ClassSpec.parse("1,5,5")
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "1000")
        with pytest.raises(ClassTooLargeError):
            list(iter_class(spec))
        with pytest.raises(ClassTooLargeError):
            list(orbit_representatives(spec))
        with pytest.raises(ClassTooLargeError):
            dist_exc(spec, route="enumerate")
        # the factorized route visits no members, so the cap does not apply
        assert dist_exc(spec).evaluate(1, 1) == 798336

    def test_guardrail_runs_before_any_table(self, monkeypatch):
        # A 12-cycle is under the default cap, and its table would keep
        # 11! orders; a class over the cap is refused before any is built.
        def refuse(m):
            raise AssertionError(f"table of {m}-cycles built")

        monkeypatch.setattr(enumeration, "_cycle_tables", refuse)
        monkeypatch.setattr(enumeration, "_valley_tables", refuse)
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "1000")
        spec = ClassSpec.parse("12")
        with pytest.raises(ClassTooLargeError):
            joint_counts(spec, route="enumerate")
        with pytest.raises(ClassTooLargeError):
            next(iter_class(spec))
        with pytest.raises(ClassTooLargeError):
            next(orbit_representatives(spec))

    def test_guardrail_reads_the_environment(self, monkeypatch):
        spec = ClassSpec.parse("1,2,2")  # 15 members
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "10")
        assert class_cap() == 10
        with pytest.raises(ClassTooLargeError):
            list(iter_class(spec))
        with pytest.raises(ClassTooLargeError):
            joint_counts(spec, route="enumerate")
        # a cap equal to the class size admits the class
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "15")
        assert len(list(iter_class(spec))) == 15
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "")
        assert class_cap() == DEFAULT_CLASS_CAP
        assert DEFAULT_CLASS_CAP == 10**8  # the figure README and the CLI give
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "abc")
        with pytest.raises(ValueError, match="CYCLESTAT_CLASS_CAP"):
            class_cap()


class TestClassWalkBlocks:
    """The walk yields each class's last cycle longer than 1, with only
    fixed points after it, as one block of orders. Every shape of block
    against the word-level oracles."""

    def test_order_of_every_class_of_s8_is_pinned(self):
        # SHA-256 of the member words, class by class in partitions_of
        # order, so a change to the walk's order shows
        digest = hashlib.sha256()
        for ct in partitions_of(8):
            for p in iter_class(ClassSpec.of_cycle_type(ct)):
                digest.update(bytes(p.word))
        assert digest.hexdigest() == (
            "acfaf993219ab5b6589c0476cafc45c9fdadd58e53f3f9eeaf6c3f6e5d2f4e5f"
        )

    @staticmethod
    def shape(word):
        """(fixed points below, fixed points above) the smallest letter
        of the cycle longer than 1 whose smallest letter is largest; 0
        stands for that letter when there is no such cycle."""
        seen, last = set(), 0
        for start in range(1, len(word) + 1):
            letter, size = start, 0
            while letter not in seen:
                seen.add(letter)
                letter, size = word[letter - 1], size + 1
            if size > 1:
                last = start
        fixed = [i for i, a in enumerate(word, start=1) if i == a]
        return sum(f < last for f in fixed), sum(f > last for f in fixed)

    def test_shapes_every_class_to_seven(self):
        scanned, ours = Counter(), Counter()
        for n in range(8):
            for word in raw_permutations(range(1, n + 1)):
                key = (oracle_cycle_sizes(word), self.shape(word))
                scanned[key + (oracle_cval(word), oracle_exc(word))] += 1
            for ct in partitions_of(n):
                for p in iter_class(ClassSpec.of_cycle_type(ct)):
                    key = (oracle_cycle_sizes(p.word), self.shape(p.word))
                    ours[key + (oracle_cval(p.word), oracle_exc(p.word))] += 1
        assert ours == scanned
        shapes = {key[:2] for key in ours}
        assert ((), (0, 0)) in shapes  # n = 0: one empty member
        for n in range(1, 8):
            assert ((1,) * n, (0, n)) in shapes  # fixed points alone
        for n in range(2, 8):
            assert ((n,), (0, 0)) in shapes  # one cycle, no fixed point
        # fixed points before the last long cycle, after it, and both
        assert {(2, 0), (1, 1), (0, 2)} == {
            shape for parts, shape in shapes if parts == (1, 1, 3)
        }
        assert {(1, 0), (0, 1)} == {shape for parts, shape in shapes if parts == (1, 2, 2)}

    def test_cells_through_iter_class_to_seven(self):
        for n in range(8):
            by_cell: dict[tuple[int, int], list] = {}
            for word in raw_permutations(range(1, n + 1)):
                by_cell.setdefault((oracle_fix(word), oracle_cval(word)), []).append(word)
            for k in range(n + 1):
                stratum = [p.word for p in iter_class(ClassSpec.with_fixed_points(n, k))]
                for i in range((n - k) // 2 + 1):
                    spec = ClassSpec.parse(f"n={n},k={k},i={i}")
                    ours = [p.word for p in iter_class(spec)]
                    assert ours == [w for w in stratum if oracle_cval(w) == i], spec
                    assert sorted(ours) == by_cell.get((k, i), []), spec


def _specs_to_six():
    """Every class, (n, k) stratum and (n, k, i) cell with n <= 6."""
    for n in range(7):
        yield from map(ClassSpec.of_cycle_type, partitions_of(n))
        for k in range(n + 1):
            yield ClassSpec.with_fixed_points(n, k)
            for i in range((n - k) // 2 + 1):
                yield ClassSpec.with_fixed_points_and_valleys(n, k, i)


def _oracle_in_spec(word, spec):
    if spec.cycle_type is not None:
        return oracle_cycle_sizes(word) == spec.cycle_type.parts
    if oracle_fix(word) != spec.fixed_points:
        return False
    return spec.cval is None or oracle_cval(word) == spec.cval


class TestOrbitRepresentatives:
    def test_members_without_double_ascent_in_iter_class_order(self):
        for spec in _specs_to_six():
            ours = [p.word for p in orbit_representatives(spec)]
            expected = {
                w
                for w in (p.word for p in all_perms(spec.n))
                if _oracle_in_spec(w, spec) and oracle_exc(w) == oracle_cval(w)
            }
            assert set(ours) == expected and len(ours) == len(expected), spec
            assert ours == [p.word for p in iter_class(spec) if p.word in expected]

    def test_pruned_recursion_on_seven(self):
        # every class, (7, k) stratum and (7, k, i) cell: the pruned
        # recursion yields the oracle's members without a double ascent,
        # in iter_class order, and its cval filter keeps the right cell
        n = 7
        profiles = [
            (p.word, oracle_cycle_sizes(p.word), oracle_fix(p.word), oracle_cval(p.word))
            for p in all_perms(n)
            if oracle_exc(p.word) == oracle_cval(p.word)
        ]
        specs = [ClassSpec.of_cycle_type(ct) for ct in partitions_of(n)]
        for k in range(n + 1):
            specs.append(ClassSpec.with_fixed_points(n, k))
            specs += [
                ClassSpec.with_fixed_points_and_valleys(n, k, i)
                for i in range((n - k) // 2 + 1)
            ]
        assert len(specs) == 15 + 8 + 20
        for spec in specs:
            if spec.cycle_type is not None:
                expected = {w for w, sizes, _, _ in profiles if sizes == spec.cycle_type.parts}
            else:
                expected = {
                    w
                    for w, _, fix, cval in profiles
                    if fix == spec.fixed_points and spec.cval in (None, cval)
                }
            ours = [p.word for p in orbit_representatives(spec)]
            assert set(ours) == expected and len(ours) == len(expected), spec
            assert ours == [p.word for p in iter_class(spec) if p.word in expected]

    def test_counts_by_cval_are_the_theorem2_gammas(self):
        for spec in _specs_to_six():
            counts = [0] * ((spec.n - spec.fixed_point_count) // 2 + 1)
            for p in orbit_representatives(spec):
                counts[oracle_cval(p.word)] += 1
            assert tuple(counts) == theorem2_gamma(spec).by_no_double_ascent, spec


class TestDistributions:
    def test_exc_examples(self):
        def exc(text):
            return dist_exc(ClassSpec.parse(text), route="enumerate")

        assert exc("3") == T + T**2
        assert exc("1,1,1,1") == ONE
        assert exc("n=3,k=0") == T + T**2

    def test_cval_examples(self):
        def cval(text):
            return dist_cval(ClassSpec.parse(text), route="enumerate")

        assert cval("3") == 2 * T
        assert cval("1,1") == ONE
        assert cval("2") == T

    def test_joint_examples(self):
        s, t = MultiPoly.s(), T
        assert dist_joint(ClassSpec.parse("3"), route="enumerate") == s * t + s * t**2
        assert dist_joint(ClassSpec.parse("1,1,1"), route="enumerate") == ONE

    def test_joint_specializations(self):
        # s -> 1 recovers the excedance polynomial; t -> 1, s -> t the
        # valley polynomial
        for text in ["3", "1,2", "2,2", "1,1,2", "5", "n=5,k=1"]:
            spec = ClassSpec.parse(text)
            joint = dist_joint(spec, route="enumerate")
            at_s1 = MultiPoly.zero()
            by_cval = MultiPoly.zero()
            for (ds, dt), c in joint.terms.items():
                at_s1 = at_s1 + MultiPoly.monomial(0, dt, c)
                by_cval = by_cval + MultiPoly.monomial(0, ds, c)
            assert at_s1 == dist_exc(spec, route="enumerate")
            assert by_cval == dist_cval(spec, route="enumerate")

    @pytest.mark.parametrize("route", ROUTES)
    def test_against_direct_scan(self, route):
        # full cross-check of both routes against a raw scan of S_n
        for n in range(0, 6):
            for ct in partitions_of(n):
                expected: dict[tuple[int, int], int] = {}
                for p in all_perms(n):
                    if oracle_cycle_sizes(p.word) != ct.parts:
                        continue
                    key = (oracle_cval(p.word), oracle_exc(p.word))
                    expected[key] = expected.get(key, 0) + 1
                spec = ClassSpec.of_cycle_type(ct)
                assert dist_joint(spec, route=route) == MultiPoly(expected)

    @pytest.mark.parametrize("route", ROUTES)
    def test_exc_sums_to_eulerian(self, route):
        from cyclestat.algebra import eulerian

        for n in range(0, 8):
            total = MultiPoly.zero()
            for ct in partitions_of(n):
                total = total + dist_exc(ClassSpec.of_cycle_type(ct), route=route)
            if n == 0:
                assert total == ONE
            else:
                assert total * T == eulerian(n)


class TestOracleAtPublishedScale:
    """The enumeration oracle against a classification of every word, at
    the n = 8 that ``verify all --n-max 8`` publishes, and the per-cycle
    tables it reads against each cycle's own word."""

    def test_every_class_of_s8_against_a_word_scan(self):
        scanned: dict[tuple, int] = {}
        for word in raw_permutations(range(1, 9)):
            key = (oracle_cycle_sizes(word), oracle_cval(word), oracle_exc(word))
            scanned[key] = scanned.get(key, 0) + 1
        for ct in partitions_of(8):
            expected = {
                (cval, exc): count
                for (parts, cval, exc), count in scanned.items()
                if parts == ct.parts
            }
            spec = ClassSpec.of_cycle_type(ct)
            assert joint_counts(spec, route="enumerate") == expected, ct

    def test_cycle_tables_against_each_cycles_word(self):
        # the j-th order of 1..m-1 after the anchor 0 has the relative
        # order of the j-th order of 2..m after the anchor 1
        for m in range(1, 10):
            keep, cvals, excs = _cycle_tables(m)
            orders = list(raw_permutations(range(2, m + 1)))
            assert keep == b"\1" * len(orders) and len(cvals) == len(excs) == len(orders)
            for order, cval, exc in zip(orders, cvals, excs):
                cycle = (1, *order)
                word = [0] * m
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    word[a - 1] = b
                word = tuple(word)
                assert (oracle_cval(word), oracle_exc(word)) == (cval, exc), cycle

    def test_cycle_counts_against_cycle_tables(self):
        # the insertion recursion of the factorized route, order by order
        for m in range(1, 10):
            _, cvals, excs = _cycle_tables(m)
            assert _cycle_counts(m) == Counter(zip(cvals, excs)), m


class TestCountSnki:
    def test_examples(self):
        assert count_snki(3, 0, 1) == 2
        assert count_snki(3, 1, 1) == 3
        for n in range(1, 7):
            assert count_snki(n, n, 0) == 1

    def test_out_of_range_is_zero(self):
        assert count_snki(3, 0, 5) == 0
        assert count_snki(4, 4, 1) == 0

    def test_bad_k(self):
        with pytest.raises(ValueError):
            count_snki(3, 4, 0)

    @pytest.mark.parametrize("route", ROUTES)
    def test_against_direct_scan(self, route):
        for n in range(1, 7):
            table: dict[tuple[int, int], int] = {}
            for p in all_perms(n):
                key = (oracle_fix(p.word), oracle_cval(p.word))
                table[key] = table.get(key, 0) + 1
            for k in range(0, n + 1):
                for i in range(0, (n - k) // 2 + 1):
                    assert count_snki(n, k, i, route=route) == table.get((k, i), 0)


@st.composite
def specs_of_nine(draw):
    """A class, a stratum (9, k) or a cell (9, k, i) of S_9. Strata and
    cells keep k >= 3: those with k <= 2 hold 92% of S_9 between them, so
    drawing them would enumerate nearly all 362,880 members."""
    shape = draw(st.sampled_from(["class", "stratum", "cell"]))
    if shape == "class":
        return ClassSpec.of_cycle_type(draw(st.sampled_from(partitions_of(9))))
    k = draw(st.integers(3, 9))
    if shape == "stratum":
        return ClassSpec.with_fixed_points(9, k)
    return ClassSpec.with_fixed_points_and_valleys(
        9, k, draw(st.integers(0, (9 - k) // 2))
    )


class TestRoutes:
    def test_agree_on_every_class(self):
        for n in range(0, 9):
            for ct in partitions_of(n):
                spec = ClassSpec.of_cycle_type(ct)
                assert joint_counts(spec) == joint_counts(spec, route="enumerate"), ct

    def test_agree_on_every_stratum(self):
        for n in range(0, 8):
            for k in range(0, n + 1):
                specs = [ClassSpec.with_fixed_points(n, k)] + [
                    ClassSpec.with_fixed_points_and_valleys(n, k, i)
                    for i in range(0, (n - k) // 2 + 1)
                ]
                for spec in specs:
                    assert joint_counts(spec) == joint_counts(
                        spec, route="enumerate"
                    ), spec

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(specs_of_nine())
    def test_agree_past_the_exhaustive_range(self, spec):
        # every class to n = 8 and every stratum to n = 7 are covered above
        assert joint_counts(spec) == joint_counts(spec, route="enumerate")

    @pytest.mark.parametrize("route", ROUTES)
    def test_returns_a_fresh_dict(self, route):
        spec = ClassSpec.parse("1,2,3")
        counts = joint_counts(spec, route=route)
        expected = dict(counts)
        counts[(0, 0)] = 99
        counts.clear()
        assert joint_counts(spec, route=route) == expected

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="route"):
            dist_joint(ClassSpec.parse("3"), route="sample")
        # i = 5 is past (n - k) // 2, where the count is 0: the route is checked first
        with pytest.raises(ValueError, match="route"):
            count_snki(3, 0, 5, route="bogus")
