import dataclasses
import math
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cyclestat
from cyclestat import hopping
from cyclestat.algebra import MultiPoly
from cyclestat.enumeration import ClassTooLargeError
from cyclestat.hopping import (
    orbit,
    orbit_counts,
    orbit_exc_polynomial,
    phi,
    psi,
)
from cyclestat.permutations import (
    Permutation,
    cycle_type,
    from_one_line,
    identity,
    parse_permutation,
    stat_counts,
    stat_sets,
    to_cycle_form,
)

from conftest import (
    all_perms,
    oracle_cval,
    oracle_exc,
    oracle_fix,
    oracle_foata_word,
    oracle_hop,
    oracle_phi,
    oracle_psi,
)


def all_subsets(letters):
    letters = tuple(letters)
    for r in range(len(letters) + 1):
        yield from (set(c) for c in combinations(letters, r))


class TestXFactorization:
    """Around x the word factors as w1 w2 x w4 w5, with w2 and w4 the
    maximal runs of smaller letters beside x; ``phi`` swaps w2 and w4
    when x is a double ascent or descent, judged with a larger letter
    past each end of the word, and leaves peaks and valleys alone."""

    def test_displayed_example(self):
        # 834279156 = 8 342 7 () 9156 around 7, a double ascent
        p = parse_permutation("834279156")
        assert str(phi(p, {7})) == "873429156"
        assert phi(p, {7}).word == oracle_phi(p.word, {7})

    def test_max_letter_at_end(self):
        # all smaller letters pile into w2; against a high right boundary
        # the letter is a double ascent and hops over all of them
        assert phi(identity(5), {5}).word == (5, 1, 2, 3, 4)

    def test_single_letter_word(self):
        assert phi(identity(1), {1}) == identity(1)  # a valley

    def test_low_left_boundary_changes_kind(self):
        # with high boundaries, x at an end of the word is never a peak
        assert phi(Permutation((2, 1)), {2}).word == (1, 2)  # double descent
        assert phi(Permutation((1, 2)), {2}).word == (2, 1)  # double ascent
        # with the low left boundary of the cycle-level hop, 2 in the
        # word 21 is a peak and stays put
        assert oracle_hop([2, 1], 2, low_left=True) == [2, 1]
        assert psi(Permutation((2, 1)), {2}) == Permutation((2, 1))

    def test_peak(self):
        p = Permutation((1, 3, 2))
        assert phi(p, {3}) == p

    def test_missing_letter(self):
        for letters in ({7}, {0}):
            with pytest.raises(ValueError, match="not contained"):
                phi(identity(3), letters)

    def test_concatenation_invariant(self):
        # the hop rearranges only the block w2 x w4; w1 and w5 stay put
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(1, 10)
            word = list(range(1, n + 1))
            rng.shuffle(word)
            x = rng.randrange(1, n + 1)
            hopped = phi(Permutation(tuple(word)), {x}).word
            assert hopped == tuple(oracle_hop(word, x, low_left=False))
            lo = hi = word.index(x)
            while lo > 0 and word[lo - 1] < x:
                lo -= 1
            while hi + 1 < n and word[hi + 1] < x:
                hi += 1
            assert hopped[:lo] == tuple(word[:lo])
            assert hopped[hi + 1 :] == tuple(word[hi + 1 :])
            assert sorted(hopped[lo : hi + 1]) == sorted(word[lo : hi + 1])


class TestPhi:
    def test_figure_example(self):
        p = parse_permutation("834279156")
        assert str(phi(p, {6, 7, 8})) == "734289615"

    def test_empty_set(self):
        p = parse_permutation("834279156")
        assert phi(p, set()) == p

    def test_involution_on_figure(self):
        p = parse_permutation("834279156")
        assert phi(phi(p, {6, 7, 8}), {6, 7, 8}) == p

    def test_involution_exhaustive(self):
        for n in range(1, 6):
            for p in all_perms(n):
                for letters in all_subsets(range(1, n + 1)):
                    assert phi(phi(p, letters), letters) == p

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            phi(identity(3), {4})


class TestFoata:
    """The Foata word of the test oracles: the canonical cycle form with
    its parentheses erased, cut back into cycles before each
    left-to-right maximum. Every ``oracle_psi`` check rests on it."""

    def test_erase_parentheses(self):
        p = parse_permutation("(4,2)(7,1,6)(8)(9,5,3)")
        assert oracle_foata_word(p.word) == [4, 2, 7, 1, 6, 8, 9, 5, 3]

    def test_identity(self):
        assert oracle_foata_word(identity(3).word) == [1, 2, 3]

    def test_figure_word(self):
        p = parse_permutation("(5,2,3)(8)(9,7,6,4,1)")
        assert oracle_foata_word(p.word) == [5, 2, 3, 8, 9, 7, 6, 4, 1]

    def test_inverse_of_displayed(self):
        p = parse_permutation("(4,2)(7,1,6)(8)(9,5,3)")
        assert oracle_psi(p.word, ()) == p.word

    def test_inverse_cuts_at_maxima(self):
        # the hopped word 532896417 is cut before 5, 8 and 9
        p = parse_permutation("(5,2,3)(8)(9,7,6,4,1)")
        image = oracle_psi(p.word, {3, 7})
        assert image == parse_permutation("(5,3,2)(8)(9,6,4,1,7)").word
        assert oracle_foata_word(image) == [5, 3, 2, 8, 9, 6, 4, 1, 7]

    def test_roundtrip_exhaustive(self):
        for n in range(0, 8):
            words = set()
            for p in all_perms(n):
                assert oracle_psi(p.word, ()) == p.word
                words.add(tuple(oracle_foata_word(p.word)))
            assert len(words) == math.factorial(n)


class TestPsi:
    def test_figure_example(self):
        p = parse_permutation("(5,2,3)(8)(9,7,6,4,1)")
        assert str(to_cycle_form(psi(p, {3, 7}))) == "(5,3,2)(8)(9,6,4,1,7)"

    def test_fixed_points_unmoved(self):
        p = parse_permutation("(5,2,3)(8)(9,7,6,4,1)")
        assert psi(p, {8}) == p
        for n in range(1, 6):
            for q in all_perms(n):
                assert psi(q, stat_sets(q).fix_set) == q

    def test_involution_on_figure(self):
        p = parse_permutation("(5,2,3)(8)(9,7,6,4,1)")
        assert psi(psi(p, {3, 7}), {3, 7}) == p

    def test_valleys_and_peaks_unmoved(self):
        for p in all_perms(5):
            s = stat_sets(p)
            assert psi(p, s.cval_set | s.cpk_set) == p

    def test_involution_exhaustive_small(self):
        for n in range(1, 6):
            for p in all_perms(n):
                for letters in all_subsets(range(1, n + 1)):
                    assert psi(psi(p, letters), letters) == p

    def test_involution_random_large(self):
        rng = random.Random(123)
        for n in (9, 10):
            for _ in range(60):
                word = list(range(1, n + 1))
                rng.shuffle(word)
                p = from_one_line(word)
                letters = {x for x in range(1, n + 1) if rng.random() < 0.5}
                assert psi(psi(p, letters), letters) == p

    def test_commutativity_pairs(self):
        for n in range(1, 6):
            for p in all_perms(n):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        assert psi(psi(p, {x}), {y}) == psi(psi(p, {y}), {x})

    def test_toggle_rules_small(self):
        # hopping swaps the two double classes inside S and fixes the rest
        for n in range(1, 6):
            for p in all_perms(n):
                s = stat_sets(p)
                for letters in all_subsets(range(1, n + 1)):
                    q = psi(p, letters)
                    sq = stat_sets(q)
                    assert sq.cval_set == s.cval_set
                    assert sq.cpk_set == s.cpk_set
                    assert sq.fix_set == s.fix_set
                    assert sq.cdasc_set == (s.cdasc_set - letters) | (
                        letters & s.cddes_set
                    )
                    assert sq.cddes_set == (s.cddes_set - letters) | (
                        letters & s.cdasc_set
                    )

    def test_preserves_cycle_type(self):
        for n in range(1, 6):
            for p in all_perms(n):
                for letters in all_subsets(range(1, n + 1)):
                    assert cycle_type(psi(p, letters)) == cycle_type(p)


class TestOrbit:
    def test_identity_singleton(self):
        for n in (1, 3, 5):
            rep = orbit(identity(n))
            assert rep.size == 1
            assert rep.representative == identity(n)

    def test_three_cycle(self):
        rep = orbit(from_one_line((2, 3, 1)), collect_members=True)
        assert rep.size == 2
        assert {str(m) for m in rep.members} == {"231", "312"}
        assert rep.size == 2 ** (3 - 0 - 2 * 1)

    def test_running_example_size(self):
        p = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
        rep = orbit(p)
        assert rep.size == 2 ** (11 - 2 - 2 * 3) == 8
        assert stat_counts(rep.representative).cdasc == 0

    def test_orbit_equals_full_subset_definition(self):
        # walking only the toggling letters gives the same set as psi over
        # every subset of [n]
        for n in range(1, 6):
            for p in all_perms(n):
                full = {psi(p, letters) for letters in all_subsets(range(1, n + 1))}
                report = orbit(p, collect_members=True)
                assert set(report.members) == full

    def test_members_are_the_sorted_oracle_images(self):
        # the members, as built, are the Foata-word images of p over every
        # subset of its cyclic double ascents and descents, sorted by word
        for n in range(7):
            for p in all_perms(n):
                w = p.word
                before = {a: i for i, a in enumerate(w, start=1)}
                toggles = [
                    x
                    for x in range(1, n + 1)
                    if w[x - 1] != x and (before[x] < x) == (x < w[x - 1])
                ]
                images = sorted({oracle_psi(w, S) for S in all_subsets(toggles)})
                members = orbit(p, collect_members=True).members
                assert [m.word for m in members] == images, p
                assert all(m == Permutation(m.word) for m in members)

    def test_size_law_and_unique_representative(self):
        for n in range(1, 6):
            for p in all_perms(n):
                c = stat_counts(p)
                report = orbit(p, collect_members=True)
                assert report.size == 2 ** (n - c.fix - 2 * c.cval)
                no_dasc = [m for m in report.members if stat_counts(m).cdasc == 0]
                assert no_dasc == [psi(p, stat_sets(p).cdasc_set)]
                assert report.representative == no_dasc[0]

    def test_representative_read_off_the_walk_is_psi_of_the_double_ascents(self):
        # orbit takes its representative from the Gray walk; psi reaches
        # it by hopping every double ascent at once
        for n in range(8):
            for p in all_perms(n):
                assert orbit(p).representative == psi(p, stat_sets(p).cdasc_set), p

    def test_size_counts_the_members_the_walk_meets(self, monkeypatch):
        # A relink that never moves one toggle letter makes the walk meet
        # each member twice; size must count them once, not the steps.
        p = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
        sets = stat_sets(p)
        toggles = sets.cdasc_set | sets.cddes_set
        skipped = min(toggles)
        relink = hopping._relink

        def skipping_relink(nxt, prv, x):
            if x != skipped:
                relink(nxt, prv, x)

        monkeypatch.setattr(hopping, "_relink", skipping_relink)
        assert orbit(p).size == 2 ** (len(toggles) - 1) < 2 ** len(toggles)

    def test_members_share_invariants(self):
        p = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
        report = orbit(p, collect_members=True)
        base = stat_sets(p)
        for m in report.members:
            s = stat_sets(m)
            assert s.cval_set == base.cval_set
            assert s.cpk_set == base.cpk_set
            assert s.fix_set == base.fix_set
            assert cycle_type(m) == cycle_type(p)


class TestOrbitBulkWrap:
    """The members of an n = 14 orbit of 4,096, which ``orbit`` sorts and
    wraps all at once, unvalidated."""

    P = Permutation((5, 1, 2, 3, 6, 9, 4, 7, 14, 8, 10, 11, 12, 13))

    @pytest.fixture(scope="class")
    def members(self):
        return orbit(self.P, collect_members=True).members

    def test_members_are_values(self, members):
        assert len(members) == 4096
        for m in members:
            assert type(m) is Permutation
            checked = Permutation(m.word)
            assert m == checked and hash(m) == hash(checked)
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.word = checked.word
        assert pickle.loads(pickle.dumps(members)) == members

    def test_members_are_the_sorted_images_over_every_subset(self, members):
        sets = stat_sets(self.P)
        toggles = sorted(sets.cdasc_set | sets.cddes_set)
        words = [m.word for m in members]
        assert words == sorted(set(words))
        images = {psi(self.P, S) for S in all_subsets(toggles)}
        assert len(toggles) == 12 and set(members) == images


class TestOrbitCap:
    """The member cap bounds the orbit walk, which must not start when the
    orbit would exceed it."""

    @staticmethod
    def refuse_relink(nxt, prv, x):
        raise AssertionError("the walk started")

    def test_orbit_above_cap_raises_before_the_walk(self, monkeypatch):
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "4")
        monkeypatch.setattr(hopping, "_relink", self.refuse_relink)
        with pytest.raises(ClassTooLargeError, match="8 members"):
            orbit(parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)"))

    def test_long_cycle_under_default_cap(self, monkeypatch):
        # 2,3,...,40,1 has 38 cyclic double ascents: 2^38 members
        monkeypatch.delenv("CYCLESTAT_CLASS_CAP", raising=False)
        monkeypatch.setattr(hopping, "_relink", self.refuse_relink)
        with pytest.raises(ClassTooLargeError, match=str(2**38)):
            orbit(Permutation((*range(2, 41), 1)))

    def test_guardrail_runs_before_the_flip_list_is_built(self, monkeypatch):
        # A flip list built first would hold 2^38 letters for the 40-cycle.
        def refuse_flips(toggles):
            raise AssertionError("the flip list was built")

        monkeypatch.setattr(hopping, "_flips", refuse_flips)
        monkeypatch.delenv("CYCLESTAT_CLASS_CAP", raising=False)
        with pytest.raises(ClassTooLargeError, match=str(2**38)):
            orbit(Permutation((*range(2, 41), 1)))
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "4")
        with pytest.raises(ClassTooLargeError, match="8 members"):
            orbit_counts(parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)"))


class TestOrbitCounts:
    """``orbit_counts`` measures each distinct member the walk meets."""

    def test_counts_match_the_oracle_over_the_members(self):
        for n in range(8):
            for p in all_perms(n):
                fix, counts = orbit_counts(p)
                members = orbit(p, collect_members=True).members
                expected = {}
                for m in members:
                    key = oracle_cval(m.word), oracle_exc(m.word)
                    expected[key] = expected.get(key, 0) + 1
                assert counts == expected, p
                assert sum(counts.values()) == orbit(p).size
                assert fix == oracle_fix(p.word)

    def test_above_cap_raises_before_the_walk(self, monkeypatch):
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "4")
        monkeypatch.setattr(hopping, "_relink", TestOrbitCap.refuse_relink)
        with pytest.raises(ClassTooLargeError, match="8 members"):
            orbit_counts(parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)"))

    def test_counts_the_members_the_walk_meets(self, monkeypatch):
        # A relink that never moves one toggle letter makes the walk meet
        # each member twice; the counts must hold each member once.
        p = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
        sets = stat_sets(p)
        toggles = sets.cdasc_set | sets.cddes_set
        skipped = min(toggles)
        relink = hopping._relink

        def skipping_relink(nxt, prv, x):
            if x != skipped:
                relink(nxt, prv, x)

        monkeypatch.setattr(hopping, "_relink", skipping_relink)
        total = sum(orbit_counts(p)[1].values())
        assert total == 2 ** (len(toggles) - 1) < 2 ** len(toggles)


class TestOrbitExcPolynomial:
    def test_identity(self):
        assert orbit_exc_polynomial(identity(4)) == MultiPoly.one()

    def test_three_cycle(self):
        t = MultiPoly.t()
        assert orbit_exc_polynomial(from_one_line((2, 3, 1))) == t + t * t

    def test_product_form(self):
        # sum of t^exc over an orbit is t^cval (1+t)^(n - fix - 2 cval)
        t = MultiPoly.t()
        for n in range(1, 6):
            for p in all_perms(n):
                c = stat_counts(p)
                expected = MultiPoly.monomial(0, c.cval) * (1 + t) ** (
                    n - c.fix - 2 * c.cval
                )
                assert orbit_exc_polynomial(p) == expected

    def test_running_example(self):
        p = parse_permutation("(5,2,1)(6)(8)(11,9,10,4,3,7)")
        t = MultiPoly.t()
        assert orbit_exc_polynomial(p) == MultiPoly.monomial(0, 3) * (1 + t) ** 3


class TestPsiOracle:
    """The relinking kernel against the Foata-word definition."""

    def test_every_subset_up_to_six(self):
        for n in range(0, 7):
            for p in all_perms(n):
                for letters in all_subsets(range(1, n + 1)):
                    assert psi(p, letters).word == oracle_psi(p.word, letters)

    def test_every_singleton_on_seven(self):
        for p in all_perms(7):
            for x in range(1, 8):
                assert psi(p, {x}).word == oracle_psi(p.word, {x})


class TestPhiOracle:
    """The word-level hop against its definition, high boundaries at both ends."""

    def test_every_subset_up_to_five(self):
        for n in range(0, 6):
            for p in all_perms(n):
                for letters in all_subsets(range(1, n + 1)):
                    assert phi(p, letters).word == oracle_phi(p.word, letters)

    def test_every_singleton_on_six(self):
        for p in all_perms(6):
            for x in range(1, 7):
                assert phi(p, {x}).word == oracle_phi(p.word, {x})


PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


@st.composite
def perms_with_letters(draw):
    """A permutation of [n], 9 <= n <= 14, with a letter set and two letters."""
    n = draw(st.integers(9, 14))
    p = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    letters = draw(st.sets(st.integers(1, n)))
    x, y = draw(st.integers(1, n)), draw(st.integers(1, n))
    return p, letters, x, y


@st.composite
def words_with_letters(draw):
    """A permutation of [n], 7 <= n <= 12, with a letter set."""
    n = draw(st.integers(7, 12))
    p = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    return p, draw(st.sets(st.integers(1, n)))


@st.composite
def large_orbit_perms(draw):
    """A permutation of [n], 9 <= n <= 14, with one cyclic valley per cycle.

    A random word is cut before its left-to-right maxima; each piece keeps
    its maximum first and lists the rest increasingly, so every letter
    after the cycle's minimum is a cyclic double ascent and the orbit has
    2^(n - fix - 2 * cycles) members.
    """
    n = draw(st.integers(9, 14))
    cycles = []
    for a in draw(st.permutations(range(1, n + 1))):
        if not cycles or a > cycles[-1][0]:
            cycles.append([a])
        else:
            cycles[-1].append(a)
    word = [0] * n
    for top, *rest in cycles:
        cycle = [top, *sorted(rest)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            word[a - 1] = b
    return Permutation(tuple(word))


class TestHoppingProperties:
    @PROPERTY_SETTINGS
    @given(words_with_letters())
    def test_phi_matches_oracle(self, case):
        p, letters = case
        assert phi(p, letters).word == oracle_phi(p.word, letters)

    @PROPERTY_SETTINGS
    @given(perms_with_letters())
    def test_psi_matches_oracle(self, case):
        p, letters, x, y = case
        assert psi(p, letters).word == oracle_psi(p.word, letters)

    @PROPERTY_SETTINGS
    @given(perms_with_letters())
    def test_involution_and_pairwise_commutation(self, case):
        p, letters, x, y = case
        assert psi(psi(p, letters), letters) == p
        assert psi(psi(p, {x}), {y}) == psi(psi(p, {y}), {x}) == psi(p, {x} ^ {y})

    @PROPERTY_SETTINGS
    @given(perms_with_letters())
    def test_toggle_rules(self, case):
        p, letters, x, y = case
        q = psi(p, letters)
        s, sq = stat_sets(p), stat_sets(q)
        assert sq.cval_set == s.cval_set
        assert sq.cpk_set == s.cpk_set
        assert sq.fix_set == s.fix_set
        assert cycle_type(q) == cycle_type(p)
        assert sq.cdasc_set == (s.cdasc_set - letters) | (letters & s.cddes_set)
        assert sq.cddes_set == (s.cddes_set - letters) | (letters & s.cdasc_set)

    @PROPERTY_SETTINGS
    @given(st.one_of(perms_with_letters().map(lambda case: case[0]), large_orbit_perms()))
    def test_orbit_size_law_and_unique_representative(self, p):
        c = stat_counts(p)
        exponent = p.n - c.fix - 2 * c.cval
        assume(exponent <= 10)
        report = orbit(p, collect_members=True)
        assert report.size == len(report.members) == 2**exponent
        no_dasc = [m for m in report.members if stat_counts(m).cdasc == 0]
        assert no_dasc == [report.representative]


def misplaced_relink(nxt, prv, x):
    """A faulty relink: x lands just before its target letter, not after."""
    a, b = prv[x], nxt[x]
    if a < x < b:
        y = a
        while y < x:
            y = prv[y]
    elif a > x > b:
        y = b
        while nxt[y] < x:
            y = nxt[y]
    else:
        return
    nxt[a], prv[b] = b, a
    c = prv[y]
    nxt[c], prv[x], nxt[x], prv[y] = x, c, y, x


class TestMutationSmoke:
    def test_misplaced_relink_is_caught(self, monkeypatch):
        monkeypatch.setattr(hopping, "_relink", misplaced_relink)
        cases = [(p, {x}) for p in all_perms(5) for x in range(1, 6)]
        assert any(psi(p, S).word != oracle_psi(p.word, S) for p, S in cases)
        assert any(psi(psi(p, S), S) != p for p, S in cases)
        assert any(phi(p, S).word != oracle_phi(p.word, S) for p, S in cases)
        assert any(phi(phi(p, S), S) != p for p, S in cases)


class TestValidationBoundary:
    @pytest.mark.parametrize("word", [(1, 1), (0, 1)])
    def test_public_constructor_still_validates(self, word):
        with pytest.raises(ValueError):
            Permutation(word)

    def test_psi_rejects_foreign_letters(self):
        for n in (1, 4, 9):
            p = Permutation(tuple(range(n, 0, -1)))
            with pytest.raises(ValueError):
                psi(p, {n + 1})

    def test_trusted_constructor_is_private(self):
        assert "_trusted" not in cyclestat.__all__

    def test_orbit_size_counts_distinct_members(self):
        for n in range(0, 6):
            for p in all_perms(n):
                assert orbit(p).size == len(orbit(p, collect_members=True).members)
