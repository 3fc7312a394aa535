"""Valley-hopping: commuting involutions that toggle double ascents/descents.

Two group actions are implemented, both products of commuting involutions
indexed by letters x in [n]:

* ``phi`` acts on one-line words. Around each letter x the word factors
  uniquely as w1 w2 x w4 w5 where w2 (w4) is the maximal run of letters
  smaller than x immediately left (right) of x. When x is a double ascent
  or double descent -- judged as if a letter larger than every other
  stood beyond each end of the word -- the involution swaps w2 and w4,
  making x "hop" over its smaller neighbours. Peaks and valleys are left
  alone.

* ``psi`` acts on the cycles of p. A letter x that is a cyclic double
  ascent (p^-1(x) < x < p(x)) or a cyclic double descent
  (p^-1(x) > x > p(x)) hops over the run of smaller letters beside it in
  its own cycle: ``_relink`` takes x out from between p^-1(x) and p(x)
  and puts it back just after a letter y of the same cycle, by
  re-pointing three images on two flat 1-indexed lists, ``nxt`` (p) and
  ``prv`` (p^-1). For a double ascent, y is the first larger letter
  before x's run of smaller predecessors; for a double descent, y is the
  last letter of its run of smaller successors. Cyclic valleys, cyclic
  peaks and fixed points stay put. So ``psi`` toggles cyclic double
  ascents and cyclic double descents while preserving cyclic valleys,
  cyclic peaks, fixed points, and the cycle type.

This is Sun and Wang's hop in the Foata word, the canonical cycle form
with its parentheses erased, judged with a low boundary on the left and
a high one on the right and cut back into cycles before each
left-to-right maximum. Each canonical cycle starts with its maximum, so
a non-fixed letter never hops out of its cycle, and in that word x's
neighbours compare with x exactly as p^-1(x) and p(x) do; ``psi`` never
builds the word. The word action is the one-cycle case: the word
w1 ... wn is the cycle (n+1, w1, ..., wn), in which n + 1 is the larger
letter beyond both ends of the word, so ``phi`` relinks that cycle and
reads the word back after n + 1. Both definitions live only in the
tests, as the ``oracle_*`` functions of ``tests/conftest.py`` that the
relink kernel is checked against.

The orbit of a permutation under ``psi`` has size 2^(n - fix - 2*cval)
and contains exactly one member without cyclic double ascents; ``orbit``
computes all of this by explicit enumeration, one relink per member, on
one pair of flat lists. The walk is a Gray code over the toggle letters
(the cyclic double ascents and descents), laid out once as a flip list
of the letter each step hops, and each member's word is kept in walk
order. The representative is the word at the step that has hopped
exactly the double ascents, so ``psi`` is not called for it. Asked for
its members, ``orbit`` orders the Gray bits so that the walk leaves its
words nearly sorted, sorts them, drops repeats and wraps them all at
once with ``Permutation._trusted_all``, unvalidated, since each is a
relinked image of a valid permutation. ``orbit_counts`` takes the same
walk and classifies each distinct member on the live lists as it is
met, so Lemma 1 counts the orbit by (cval, exc) without building a
single ``Permutation`` of it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import MultiPoly
from .enumeration import ClassTooLargeError
from .permutations import (
    Permutation,
    _cycles_of_word,
    _link_classes,
    _links,
    _word_from_cycles,
)

__all__ = [
    "phi",
    "psi",
    "OrbitReport",
    "orbit",
    "orbit_counts",
    "orbit_exc_polynomial",
]


def _check_letters(letters, n: int) -> list[int]:
    out = sorted(set(letters))
    if out and (out[0] < 1 or out[-1] > n):
        raise ValueError(f"letters {out} not contained in [1, {n}]")
    return out


def phi(p: Permutation, letters) -> Permutation:
    """Apply the word-level hop involution for every letter in ``letters``.

    The word w1 ... wn hops as the cycle (n+1, w1, ..., wn): every letter
    x in [n] makes the cyclic hop of :func:`psi` there, and the word is
    read back after n + 1. The involutions commute, so the set alone
    determines the result.

    >>> str(phi(Permutation((8, 3, 4, 2, 7, 9, 1, 5, 6)), {6, 7, 8}))
    '734289615'
    """
    n = p.n
    nxt, prv = _links(_word_from_cycles([(n + 1, *p.word)], n + 1))
    for x in _check_letters(letters, n):
        _relink(nxt, prv, x)
    return Permutation._trusted(_cycles_of_word(tuple(nxt[1:]))[0][1:])


def _relink(nxt: list[int], prv: list[int], x: int) -> None:
    """Hop the letter x in place, if it is a cyclic double ascent or descent.

    x leaves its place between p^-1(x) and p(x) and is put back just
    after the letter y found below, in the same cycle; peaks, valleys and
    fixed points match neither case and stay put.
    """
    a, b = prv[x], nxt[x]
    if a < x < b:  # double ascent: back over the smaller predecessors
        y = a
        while y < x:
            y = prv[y]
    elif a > x > b:  # double descent: forward over the smaller successors
        y = b
        while nxt[y] < x:
            y = nxt[y]
    else:
        return
    nxt[a], prv[b] = b, a
    c = nxt[y]
    nxt[y], prv[x], nxt[x], prv[c] = x, y, c, x


def psi(p: Permutation, letters) -> Permutation:
    """Apply the cycle-level hop involution for every letter in ``letters``.

    Fixed points of p are left untouched; every other letter hops inside
    its cycle as it would in the parenthesis-erased word with a low left
    boundary and a high right boundary. The output has the same cycle
    type as p.

    >>> from .permutations import parse_permutation, to_cycle_form
    >>> p = parse_permutation("(5,2,3)(8)(9,7,6,4,1)")
    >>> str(to_cycle_form(psi(p, {3, 7})))
    '(5,3,2)(8)(9,6,4,1,7)'
    """
    nxt, prv = _links(p.word)
    for x in _check_letters(letters, p.n):
        _relink(nxt, prv, x)
    return Permutation._trusted(tuple(nxt[1:]))


@dataclass(frozen=True)
class OrbitReport:
    """One orbit of the cycle-level hopping action.

    ``representative`` is the unique member without cyclic double ascents;
    ``members`` is populated only when requested, sorted by word.
    """

    representative: Permutation
    size: int
    cval: int
    fix: int
    members: tuple[Permutation, ...] | None = None


def _start(
    p: Permutation, decreasing: bool = False
) -> tuple[list[int], list[int], tuple[list[int], ...], list[int], list[int]]:
    """The start of the orbit walk: p's links, their letter classes, the
    toggle letters, increasing or ``decreasing``, and the walk's flip
    list, built only once the orbit has passed the guardrail."""
    nxt, prv = _links(p.word)
    classes = _link_classes(nxt, prv)
    toggles = sorted(classes[3] + classes[4], reverse=decreasing)
    ClassTooLargeError.check(1 << len(toggles), "the orbit of %s", p)
    return nxt, prv, classes, toggles, _flips(toggles)


def _flips(toggles: list[int]) -> list[int]:
    """The letters the Gray-order walk hops, one per step: step j hops
    ``toggles[i]`` for the lowest set bit i of j, so the first letter
    flips every other step and the last once."""
    flips: list[int] = []
    for x in toggles:
        flips = flips + [x] + flips
    return flips


def orbit(p: Permutation, collect_members: bool = False) -> OrbitReport:
    """Enumerate the orbit of p under the cycle-level hopping action.

    Only cyclic double ascents and cyclic double descents can move, so the
    orbit is generated by toggling subsets of those letters; the walk
    below takes them in Gray order off one flip list, relinking one
    letter of one pair of flat lists in place per step, and keeps each
    step's word in the list ``words``, in walk order. ``size`` counts the
    distinct words the walk meets. The letters are classified once, from
    the same lists before the walk. The representative is read off the
    walk: ``words[j]`` has toggled the letters of the Gray code
    j ^ (j >> 1), so the member that has hopped exactly the double
    ascents of p is ``words[at]`` for the step ``at`` whose Gray code is
    their mask. The members are the distinct words, sorted.

    For them the letters go on the Gray bits in decreasing order. A hop
    of x first changes the word at x's predecessor in its double-ascent
    state, a smaller letter, where that state has the smaller entry, x.
    So the small letters, which change the early entries, go on the
    rarely flipped high bits; the words leave the walk nearly sorted,
    and sorting them takes a few comparisons a member. Without members
    the letters go in increasing order, which makes the hops cheaper: x
    hops over a run of smaller letters, and the small letters, flipped
    often, have the shortest runs. An orbit of more than ``class_cap()``
    members raises :class:`~cyclestat.enumeration.ClassTooLargeError`
    before the flip list is built.

    >>> rep = orbit(Permutation((2, 3, 1)), collect_members=True)
    >>> rep.size, [str(m) for m in rep.members], str(rep.representative)
    (2, ['231', '312'], '312')
    """
    nxt, prv, (_, cval, _, cdasc, _, fix), toggles, flips = _start(
        p, collect_members
    )
    words = [p.word]
    for x in flips:
        _relink(nxt, prv, x)
        words.append(tuple(nxt[1:]))
    rising = set(cdasc)
    at = 0  # the step whose Gray code is the mask of the double ascents
    for bit, x in enumerate(toggles):
        if x in rising:
            at ^= (1 << (bit + 1)) - 1
    distinct = dict.fromkeys(sorted(words)) if collect_members else set(words)
    return OrbitReport(
        representative=Permutation._trusted(words[at]),
        size=len(distinct),
        cval=len(cval),
        fix=len(fix),
        members=Permutation._trusted_all(distinct) if collect_members else None,
    )


def orbit_counts(p: Permutation) -> tuple[int, dict[tuple[int, int], int]]:
    """The number of fixed points of p, and the members of its orbit
    counted by (cval, exc).

    The walk is :func:`orbit`'s without members, over the same flip
    list, with a check after each step so that ``orbit``'s own loop pays
    nothing for the measuring. Each distinct member is classified once,
    on the links the walk has just relinked, when its word is first met;
    p itself is classified at the start. So the counts are measured, not
    derived from the hops, and they total the orbit's size.

    >>> orbit_counts(Permutation((2, 3, 1)))
    (0, {(1, 2): 1, (1, 1): 1})
    """
    nxt, prv, (exc, cval, _, _, _, fix), _, flips = _start(p)
    counts = {(len(cval), len(exc)): 1}
    words = {p.word}
    for x in flips:
        _relink(nxt, prv, x)
        met = len(words)
        words.add(tuple(nxt[1:]))
        if len(words) > met:
            exc, cval = _link_classes(nxt, prv)[:2]
            key = len(cval), len(exc)
            counts[key] = counts.get(key, 0) + 1
    return len(fix), counts


def orbit_exc_polynomial(p: Permutation) -> MultiPoly:
    """Sum of t^exc over the orbit of p; equals t^cval (1+t)^(n-fix-2 cval)."""
    terms = {}
    for (_, exc), count in orbit_counts(p)[1].items():
        terms[0, exc] = terms.get((0, exc), 0) + count
    return MultiPoly(terms)
