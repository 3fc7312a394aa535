import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclestat.enumeration import ClassSpec
from cyclestat.permutations import (
    CycleForm,
    CycleType,
    Permutation,
    cycle_type,
    des,
    from_cycle_form,
    from_one_line,
    identity,
    parse_cycle_text,
    parse_permutation,
    stat_counts,
    stat_sets,
    to_cycle_form,
)

from conftest import (
    all_perms,
    oracle_cval,
    oracle_des,
    oracle_exc,
    oracle_fix,
    oracle_foata_word,
)

RUNNING_EXAMPLE = "(5,2,1)(6)(8)(11,9,10,4,3,7)"


class TestConstruction:
    def test_from_one_line(self):
        p = from_one_line((3, 7, 1, 8, 9, 6, 5, 4, 2))
        assert p.n == 9
        assert p(1) == 3 and p(9) == 2

    def test_identity_of_s1(self):
        assert from_one_line((1,)) == identity(1)

    def test_empty_permutation(self):
        assert identity(0).n == 0
        assert stat_counts(identity(0)) == (0, 0, 0, 0, 0, 0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_one_line((2, 2, 1))

    def test_rejects_zero_based(self):
        with pytest.raises(ValueError, match="0-indexed"):
            from_one_line((0, 1, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_one_line((1, 5))

    def test_roundtrip_word(self):
        for p in all_perms(5):
            assert from_one_line(p.word) == p


class TestValueType:
    """``Permutation`` is a slotted frozen value; ``_trusted`` makes the
    same value as the validating constructor, without the check."""

    @staticmethod
    def both_paths():
        for n in range(6):
            for p in all_perms(n):
                yield p, Permutation._trusted(p.word)

    def test_no_instance_dict(self):
        for checked, trusted in self.both_paths():
            assert not hasattr(checked, "__dict__")
            assert not hasattr(trusted, "__dict__")

    def test_word_cannot_be_assigned(self):
        for p in (Permutation((2, 3, 1)), Permutation._trusted((2, 3, 1))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                p.word = (1, 2, 3)
            with pytest.raises(dataclasses.FrozenInstanceError):
                del p.word
            assert p.word == (2, 3, 1)

    def test_trusted_equals_the_validated_value(self):
        for checked, trusted in self.both_paths():
            assert type(trusted) is Permutation
            assert trusted == checked and not trusted != checked
            assert hash(trusted) == hash(checked)
        assert len({p for pair in self.both_paths() for p in pair}) == sum(
            map(math.factorial, range(6))
        )

    def test_trusted_all_wraps_each_word_in_order(self):
        words = [p.word for n in range(6) for p in all_perms(n)]
        members = Permutation._trusted_all(dict.fromkeys(words))
        assert type(members) is tuple
        assert members == tuple(map(Permutation, words))
        assert all(m.word is w for m, w in zip(members, words))
        assert all(type(m) is Permutation for m in members)

    def test_constructor_stores_a_tuple(self):
        p = Permutation([3, 1, 2])
        assert type(p.word) is tuple and p == Permutation._trusted((3, 1, 2))

    CLONES = {
        **{
            f"pickle-{protocol}": lambda p, protocol=protocol: pickle.loads(
                pickle.dumps(p, protocol)
            )
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        },
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
    }

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_copies_round_trip(self, clone):
        for pair in self.both_paths():
            for p in pair:
                other = clone(p)
                assert type(other) is Permutation
                assert other == p and hash(other) == hash(p)
                assert not hasattr(other, "__dict__")
                with pytest.raises(dataclasses.FrozenInstanceError):
                    other.word = ()


class TestCycleForm:
    def test_to_cycle_form_nine_letters(self):
        p = parse_permutation("649237185")
        assert str(to_cycle_form(p)) == "(4,2)(7,1,6)(8)(9,5,3)"

    def test_one_line_example(self):
        p = parse_permutation("371896542")
        assert str(to_cycle_form(p)) == "(3,1)(6)(8,4)(9,2,7,5)"

    def test_identity_all_fixed(self):
        assert str(to_cycle_form(identity(3))) == "(1)(2)(3)"

    def test_from_cycle_form_inverse(self):
        c = parse_cycle_text("(4,2)(7,1,6)(8)(9,5,3)")
        assert str(from_cycle_form(c)) == "649237185"

    def test_eleven_letter_example(self):
        p = parse_permutation(RUNNING_EXAMPLE)
        images = {5: 2, 2: 1, 1: 5, 6: 6, 8: 8, 11: 9, 9: 10, 10: 4, 4: 3, 3: 7, 7: 11}
        for a, b in images.items():
            assert p(a) == b

    def test_noncanonical_input_normalized(self):
        c = CycleForm(((1, 6, 7), (2, 4), (8,), (3, 9, 5)))
        assert str(c) == "(4,2)(7,1,6)(8)(9,5,3)"

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            CycleForm(((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            CycleForm(((1, 3),))

    def test_roundtrip_exhaustive(self):
        for n in range(0, 7):
            for p in all_perms(n):
                assert from_cycle_form(to_cycle_form(p)) == p

    def test_roundtrip_random_large(self):
        rng = random.Random(20240811)
        for n in (9, 12, 20):
            for _ in range(50):
                word = list(range(1, n + 1))
                rng.shuffle(word)
                p = from_one_line(word)
                assert from_cycle_form(to_cycle_form(p)) == p


class TestCycleType:
    def test_mixed_cycle_type(self):
        assert cycle_type(parse_permutation("371896542")).parts == (1, 2, 2, 4)

    def test_identity(self):
        assert cycle_type(identity(5)).parts == (1, 1, 1, 1, 1)

    def test_eleven_letter_example(self):
        assert cycle_type(parse_permutation(RUNNING_EXAMPLE)).parts == (1, 1, 3, 6)

    def test_from_text_comma(self):
        assert CycleType.from_text("1,5,5").parts == (1, 5, 5)

    def test_from_text_multiplicity(self):
        assert CycleType.from_text("1^1 5^2").parts == (1, 5, 5)
        assert CycleType.from_text("2^2").parts == (2, 2)
        assert CycleType.from_text("1^2 5^0").parts == (1, 1)

    @pytest.mark.parametrize("text", ["1^1 5^-1", "5^-1"])
    def test_from_text_rejects_negative_multiplicity(self, text):
        with pytest.raises(ValueError, match="multiplicity"):
            CycleType.from_text(text)

    def test_multiplicities(self):
        ct = CycleType((1, 2, 2, 4))
        assert ct.multiplicities == {1: 1, 2: 2, 4: 1}
        assert ct.n == 9
        assert ct.fixed_point_count == 1

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            CycleType((0, 2))


class TestDescents:
    def test_nine_letter_example(self):
        assert des(parse_permutation("371896542")) == 5

    def test_identity(self):
        assert des(identity(6)) == 0

    def test_decreasing(self):
        assert des(from_one_line((5, 4, 3, 2, 1))) == 4


class TestStatSets:
    def test_running_example_sets(self):
        s = stat_sets(parse_permutation(RUNNING_EXAMPLE))
        assert s.exc_set == {1, 3, 7, 9}
        assert s.cval_set == {1, 3, 9}
        assert s.cpk_set == {5, 10, 11}
        assert s.cdasc_set == {7}
        assert s.cddes_set == {2, 4}
        assert s.fix_set == {6, 8}

    def test_running_example_counts(self):
        assert stat_counts(parse_permutation(RUNNING_EXAMPLE)) == (4, 3, 3, 1, 2, 2)

    def test_identity_counts(self):
        s = stat_sets(identity(4))
        assert s.fix_set == {1, 2, 3, 4}
        assert not (s.exc_set | s.cval_set | s.cpk_set | s.cdasc_set | s.cddes_set)

    def test_excedances_one_line_example(self):
        assert stat_sets(parse_permutation("371896542")).exc_set == {1, 2, 4, 5}

    def test_three_cycle(self):
        assert stat_counts(from_one_line((2, 3, 1))) == (2, 1, 1, 1, 0, 0)

    def test_letter_classes_partition_n(self):
        # every letter lands in exactly one class, and the counts add to n
        for n in range(0, 8):
            for p in all_perms(n):
                c = stat_counts(p)
                assert c.cval + c.cpk + c.cdasc + c.cddes + c.fix == n
                s = stat_sets(p)
                union = (
                    s.cval_set | s.cpk_set | s.cdasc_set | s.cddes_set | s.fix_set
                )
                assert union == set(range(1, n + 1))
                total = (
                    len(s.cval_set)
                    + len(s.cpk_set)
                    + len(s.cdasc_set)
                    + len(s.cddes_set)
                    + len(s.fix_set)
                )
                assert total == n  # pairwise disjoint

    def test_counts_are_the_set_sizes_and_the_definitions(self):
        # stat_counts and stat_sets read one classifier; the counts must
        # be the sets' sizes, and exc, cval, fix those of the definitions
        for n in range(0, 8):
            for p in all_perms(n):
                c, s = stat_counts(p), stat_sets(p)
                sets = (
                    s.exc_set, s.cval_set, s.cpk_set, s.cdasc_set, s.cddes_set, s.fix_set
                )
                assert c == tuple(map(len, sets))
                assert (c.exc, c.cval, c.fix) == (
                    oracle_exc(p.word),
                    oracle_cval(p.word),
                    oracle_fix(p.word),
                )

    def test_excedance_decomposition(self):
        for n in range(0, 8):
            for p in all_perms(n):
                s = stat_sets(p)
                assert s.cval_set | s.cdasc_set == s.exc_set
                assert len(s.cval_set) + len(s.cdasc_set) == len(s.exc_set)

    def test_peaks_match_valleys(self):
        for n in range(0, 8):
            for p in all_perms(n):
                c = stat_counts(p)
                assert c.cpk == c.cval

    def test_des_exc_equidistributed(self):
        for n in range(0, 7):
            by_des = [0] * (n + 1)
            by_exc = [0] * (n + 1)
            for p in all_perms(n):
                by_des[oracle_des(p.word)] += 1
                by_exc[oracle_exc(p.word)] += 1
            assert by_des == by_exc


class TestLeftToRightMaxima:
    """The canonical cycles start with their maxima, in increasing order,
    so their first letters are the left-to-right maxima of the Foata
    word: the cut that turns that word back into cycles."""

    @staticmethod
    def check(text, leaders):
        p = parse_permutation(text)
        word = oracle_foata_word(p.word)
        maxima = [a for i, a in enumerate(word) if a == max(word[: i + 1])]
        assert [cycle[0] for cycle in to_cycle_form(p).cycles] == maxima == leaders

    def test_scan_example(self):
        self.check("(4,2)(7,1,6)(8)(9,5,3)", [4, 7, 8, 9])

    def test_increasing(self):
        self.check("123456", [1, 2, 3, 4, 5, 6])

    def test_decreasing(self):
        self.check("(6,5,4,3,2,1)", [6])


class TestParsing:
    def test_compact(self):
        assert parse_permutation("371896542").word == (3, 7, 1, 8, 9, 6, 5, 4, 2)

    def test_comma(self):
        assert parse_permutation("3,7,1,8,9,6,5,4,2").n == 9

    def test_cycles(self):
        assert parse_permutation(RUNNING_EXAMPLE).n == 11

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_permutation("3,7,x")
        with pytest.raises(ValueError):
            parse_permutation("(1,2")
        with pytest.raises(ValueError):
            parse_permutation("(1,2)junk(3)")


# Every printed form parses back to the value that printed it.
PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)
perms = st.integers(0, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))
)
cycle_types = st.lists(st.integers(1, 6), max_size=6).map(
    lambda parts: CycleType(tuple(parts))
)


@st.composite
def class_specs(draw):
    """A conjugacy class, a stratum (n, k) or a cell (n, k, i)."""
    shape = draw(st.sampled_from(["class", "stratum", "cell"]))
    if shape == "class":
        return ClassSpec.of_cycle_type(draw(cycle_types))
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, n))
    if shape == "stratum":
        return ClassSpec.with_fixed_points(n, k)
    return ClassSpec.with_fixed_points_and_valleys(
        n, k, draw(st.integers(0, (n - k) // 2))
    )


class TestTextRoundTrips:
    @PROPERTY_SETTINGS
    @given(perms)
    def test_permutation(self, p):
        # compact digits for n <= 9, commas above
        assert parse_permutation(str(p)) == p

    @PROPERTY_SETTINGS
    @given(perms)
    def test_cycle_form(self, p):
        assert parse_permutation(str(to_cycle_form(p))) == p

    @PROPERTY_SETTINGS
    @given(cycle_types)
    def test_cycle_type_in_both_syntaxes(self, ct):
        power_form = " ".join(f"{i}^{m}" for i, m in sorted(ct.multiplicities.items()))
        comma_form = ",".join(map(str, ct.parts))
        assert CycleType.from_text(str(ct)) == ct
        assert CycleType.from_text(power_form) == CycleType.from_text(comma_form) == ct

    @PROPERTY_SETTINGS
    @given(class_specs())
    def test_class_spec(self, spec):
        assert ClassSpec.parse(str(spec)) == spec
