"""Permutations of [n] = {1, ..., n} and their cyclic statistics.

A permutation is stored in one-line notation: ``word[i - 1]`` is the image
of ``i``. Letters and positions are 1-indexed throughout, matching the
usual combinatorics conventions. The empty permutation (n = 0) is allowed
and carries all-zero statistics.

Cycle notation uses the canonical representation: each cycle is written
with its largest letter first, and cycles are ordered left to right by
increasing largest letter. Non-canonical cycle input is accepted and
normalized on construction.

Every letter i of a permutation falls into exactly one of five classes,
determined by comparing it with its cycle neighbours p^-1(i) and p(i):

* cyclic valley:        p^-1(i) > i < p(i)
* cyclic peak:          p^-1(i) < i > p(i)
* cyclic double ascent: p^-1(i) < i < p(i)
* cyclic double descent:p^-1(i) > i > p(i)
* fixed point:          p(i) = i

Excedances are the letters with i < p(i), i.e. exactly the cyclic valleys
and cyclic double ascents.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Collection, Iterable, NamedTuple, Sequence

__all__ = [
    "Permutation",
    "CycleForm",
    "CycleType",
    "StatSets",
    "StatCounts",
    "from_one_line",
    "identity",
    "to_cycle_form",
    "from_cycle_form",
    "cycle_type",
    "des",
    "stat_sets",
    "stat_counts",
    "parse_permutation",
]


def _validate_word(word: tuple[int, ...]) -> None:
    n = len(word)
    seen = [False] * (n + 1)
    for letter in word:
        if not isinstance(letter, int):
            raise ValueError(f"letter {letter!r} is not an integer")
        if letter == 0:
            raise ValueError("letter 0 found: words are 1-indexed, not 0-indexed")
        if letter < 0 or letter > n:
            raise ValueError(f"letter {letter} out of range for a word of length {n}")
        if seen[letter]:
            raise ValueError(f"duplicate letter {letter}")
        seen[letter] = True


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of [n] in one-line notation.

    A slotted frozen value: the word is its one field, held in a slot
    with no per-instance ``__dict__``, and two permutations are equal,
    and hash alike, exactly when their words are. The constructor
    validates its word; :meth:`_trusted` and its bulk form
    :meth:`_trusted_all` are the one unvalidated path.

    >>> p = Permutation((3, 7, 1, 8, 9, 6, 5, 4, 2))
    >>> p(1), p(9)
    (3, 2)
    >>> p.n
    9
    """

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        _set_word(self, tuple(self.word))
        _validate_word(self.word)

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple already known to be a permutation, unvalidated:
        a bare instance whose ``word`` slot is stored directly, past the
        frozen ``__setattr__``.

        Only for words the library built as permutations: the hop
        kernel's relinked images, the orbit walk's members and the class
        walk's members, which the cycle recursion of
        :mod:`cyclestat.enumeration` builds from disjoint cycles covering
        [n]. Every outside word goes through the validating constructor.
        :meth:`_trusted_all` is the same wrap for many words at once.
        """
        self = _new(cls)
        _set_word(self, word)
        return self

    @classmethod
    def _trusted_all(
        cls, words: Collection[tuple[int, ...]]
    ) -> tuple["Permutation", ...]:
        """:meth:`_trusted` of each word, in order, and for the same
        library-built words only: here the orbit walk's members. The
        allocation and the slot store are mapped over the words in C,
        with no Python frame per word."""
        members = tuple(map(_new, repeat(cls, len(words))))
        for _ in map(_set_word, members, words):
            pass
        return members

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Image of the letter i, 1-indexed."""
        if not 1 <= i <= self.n:
            raise ValueError(f"letter {i} out of range [1, {self.n}]")
        return self.word[i - 1]

    def __str__(self) -> str:
        if self.n == 0:
            return "()"
        if self.n <= 9:
            return "".join(str(a) for a in self.word)
        return ",".join(str(a) for a in self.word)


# Bound once: the bare allocation and the ``word`` slot's own store, which
# the frozen ``__setattr__`` would refuse.
_new = object.__new__
_set_word = Permutation.word.__set__


def from_one_line(word: Sequence[int]) -> Permutation:
    """Build a permutation from a rearrangement of 1..n.

    Rejects duplicates, out-of-range letters, and zero-based words.

    >>> from_one_line([3, 7, 1, 8, 9, 6, 5, 4, 2]).n
    9
    """
    return Permutation(tuple(word))


def identity(n: int) -> Permutation:
    """The identity permutation of S_n (n = 0 gives the empty permutation)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Permutation(tuple(range(1, n + 1)))


def _canonicalize_cycles(
    cycles: Iterable[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    out = []
    for cycle in cycles:
        cycle = tuple(cycle)
        if not cycle:
            raise ValueError("empty cycle")
        top = cycle.index(max(cycle))
        out.append(cycle[top:] + cycle[:top])
    out.sort(key=lambda c: c[0])
    return tuple(out)


@dataclass(frozen=True)
class CycleForm:
    """A permutation as a tuple of disjoint cycles partitioning [n].

    Any rotation/order of the input cycles is accepted; the stored form is
    canonical (largest letter first in each cycle, cycles by increasing
    largest letter).

    >>> str(CycleForm(((1, 6, 7), (2, 4), (8,), (3, 9, 5))))
    '(4,2)(7,1,6)(8)(9,5,3)'
    """

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canon = _canonicalize_cycles(self.cycles)
        object.__setattr__(self, "cycles", canon)
        letters = [a for cycle in canon for a in cycle]
        _validate_word(tuple(letters))  # same check: a partition of [n]

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cycles)

    def __str__(self) -> str:
        if not self.cycles:
            return "()"
        return "".join(
            "(" + ",".join(str(a) for a in cycle) + ")" for cycle in self.cycles
        )


@dataclass(frozen=True)
class CycleType:
    """An integer partition of n, stored with weakly increasing parts.

    >>> CycleType((2, 1, 2, 4)).parts
    (1, 2, 2, 4)
    >>> CycleType.from_text("1^1 5^2").parts
    (1, 5, 5)
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(sorted(self.parts))
        if any(not isinstance(p, int) or p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {self.parts!r}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_text(cls, text: str) -> "CycleType":
        """Parse "1,5,5" (comma list), "1^1 5^2" (multiplicity form), or
        either in one enclosing pair of parentheses, as ``str`` prints it."""
        text = text.strip()
        if len(text) > 1 and text[0] + text[-1] == "()":
            text = text[1:-1].strip()
        if not text:
            return cls(())
        if "^" in text:
            parts: list[int] = []
            for token in text.split():
                base, caret, mult = token.partition("^")
                if caret and not mult:
                    raise ValueError(f"missing multiplicity in {token!r}")
                count = int(mult) if caret else 1
                if count < 0:
                    raise ValueError(f"negative multiplicity in {token!r}")
                parts.extend([int(base)] * count)
            return cls(tuple(parts))
        return cls(tuple(int(tok) for tok in text.split(",")))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        """Map part size i -> number of parts of size i."""
        return dict(Counter(self.parts))

    @property
    def fixed_point_count(self) -> int:
        """Number of parts of size 1."""
        return sum(1 for p in self.parts if p == 1)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class StatCounts(NamedTuple):
    exc: int
    cval: int
    cpk: int
    cdasc: int
    cddes: int
    fix: int


@dataclass(frozen=True)
class StatSets:
    """The six letter classes of a permutation, as frozensets of letters."""

    exc_set: frozenset[int]
    cval_set: frozenset[int]
    cpk_set: frozenset[int]
    cdasc_set: frozenset[int]
    cddes_set: frozenset[int]
    fix_set: frozenset[int]


def _cycles_of_word(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of a one-line word (largest letter leads each cycle)."""
    n = len(word)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        a = start
        while not seen[a]:
            seen[a] = True
            cycle.append(a)
            a = word[a - 1]
        cycles.append(cycle)
    return _canonicalize_cycles(cycles)


def to_cycle_form(p: Permutation) -> CycleForm:
    """Canonical cycle form of a permutation.

    >>> str(to_cycle_form(from_one_line([6, 4, 9, 2, 3, 7, 1, 8, 5])))
    '(4,2)(7,1,6)(8)(9,5,3)'
    """
    return CycleForm(_cycles_of_word(p.word))


def _word_from_cycles(
    cycles: Iterable[Sequence[int]], n: int
) -> tuple[int, ...]:
    """The word of length n with the given disjoint cycles; a letter in
    no cycle is a fixed point."""
    word = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:]):
            word[a - 1] = b
        word[cycle[-1] - 1] = cycle[0]
    return tuple(word)


def _links(word: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """``nxt`` and ``prv``: the images under p and p^-1, 1-indexed (slot 0
    unused)."""
    nxt = [0, *word]
    prv = [0] * len(nxt)
    for i, a in enumerate(word, start=1):
        prv[a] = i
    return nxt, prv


def from_cycle_form(c: CycleForm) -> Permutation:
    """Permutation defined by a set of disjoint cycles covering [n]."""
    return Permutation(_word_from_cycles(c.cycles, c.n))


def cycle_type(p: Permutation) -> CycleType:
    """The partition of n recording the cycle sizes of p.

    >>> str(cycle_type(from_one_line([3, 7, 1, 8, 9, 6, 5, 4, 2])))
    '(1,2,2,4)'
    """
    return CycleType(tuple(len(c) for c in _cycles_of_word(p.word)))


def des(p: Permutation) -> int:
    """Number of descents: positions i with p(i) > p(i+1)."""
    w = p.word
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def _link_classes(nxt: list[int], prv: list[int]) -> tuple[list[int], ...]:
    """The letters in the six classes of the permutation whose
    :func:`_links` are ``nxt`` and ``prv``, in ``StatSets`` field order:
    excedances, cyclic valleys, peaks, double ascents, double descents
    and fixed points, each list increasing. The one classification loop,
    which :func:`stat_sets` and :func:`stat_counts` read through
    :func:`_letter_classes`, and ``hopping.orbit`` reads from the links
    it walks."""
    exc, cval, cpk, cdasc, cddes, fix = [], [], [], [], [], []
    for i in range(1, len(nxt)):
        a, b = prv[i], nxt[i]
        if b == i:
            fix.append(i)
            continue
        if i < b:
            exc.append(i)
            if a > i:
                cval.append(i)
            else:
                cdasc.append(i)
        else:
            if a < i:
                cpk.append(i)
            else:
                cddes.append(i)
    return exc, cval, cpk, cdasc, cddes, fix


def _letter_classes(p: Permutation) -> tuple[list[int], ...]:
    """:func:`_link_classes` of p."""
    return _link_classes(*_links(p.word))


def stat_sets(p: Permutation) -> StatSets:
    """Classify every letter of p: the lists of :func:`_letter_classes`,
    frozen.

    >>> p = from_one_line([5, 1, 7, 3, 2, 6, 11, 8, 10, 4, 9])
    >>> s = stat_sets(p)
    >>> sorted(s.exc_set), sorted(s.cval_set)
    ([1, 3, 7, 9], [1, 3, 9])
    >>> sorted(s.cpk_set), sorted(s.cdasc_set), sorted(s.cddes_set), sorted(s.fix_set)
    ([5, 10, 11], [7], [2, 4], [6, 8])
    """
    return StatSets(*map(frozenset, _letter_classes(p)))


def stat_counts(p: Permutation) -> StatCounts:
    """Cardinalities of the six statistic sets: the lengths of the lists
    of :func:`_letter_classes`, so no set is built. No list repeats a
    letter, so these are the sizes of the sets :func:`stat_sets` freezes
    from the same lists.

    >>> stat_counts(from_one_line([2, 3, 1]))
    StatCounts(exc=2, cval=1, cpk=1, cdasc=1, cddes=0, fix=0)
    """
    return StatCounts(*map(len, _letter_classes(p)))


_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")


def parse_cycle_text(text: str) -> CycleForm:
    """Parse cycle notation like "(5,2,1)(6)(8)(11,9,10,4,3,7)"."""
    text = text.strip()
    if text.replace(" ", "") == "()":
        return CycleForm(())
    matches = _CYCLE_TOKEN.findall(text)
    if not matches or "".join(f"({m})" for m in matches) != text.replace(" ", ""):
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in matches:
        if not body:
            raise ValueError("empty cycle in cycle notation")
        cycles.append(tuple(int(tok) for tok in body.split(",")))
    return CycleForm(tuple(cycles))


def parse_permutation(text: str) -> Permutation:
    """Parse a permutation from text.

    Accepts cycle notation "(4,2)(7,1,6)(8)(9,5,3)", the comma-separated
    one-line form "3,7,1,8,9,6,5,4,2", or the compact digit form
    "371896542" (only meaningful for n <= 9).
    """
    text = text.strip()
    if text.startswith("("):
        return from_cycle_form(parse_cycle_text(text))
    if "," in text:
        return from_one_line([int(tok) for tok in text.split(",")])
    if not text.isdigit():
        raise ValueError(f"cannot parse permutation from {text!r}")
    return from_one_line([int(ch) for ch in text])
