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

* ``psi`` is defined through the word obtained by erasing the parentheses
  of the canonical cycle form (``foata``): the letter hops there, with a
  low boundary on the left and a high boundary on the right, and the
  result is read back into cycle form by cutting at left-to-right maxima
  (``foata_inverse``). Fixed points never move. This toggles cyclic
  double ascents and cyclic double descents while preserving cyclic
  valleys, cyclic peaks, fixed points, and the cycle type.

Both are one move, the cyclic hop. Each canonical cycle starts with its
maximum, so a non-fixed letter x never hops out of its cycle, and in the
word x's neighbours compare with x exactly as its cycle neighbours p^-1(x)
and p(x) do. A hop therefore moves x to another place in its own cycle: a
cyclic double ascent goes to just after the first larger letter before its
run of smaller predecessors, a cyclic double descent to just after the last
letter of its run of smaller successors. ``_relink`` makes that move on two
flat 1-indexed lists, ``nxt`` (p) and ``prv`` (p^-1), by re-pointing three
images. The word action is the one-cycle case: the word w1 ... wn is the
cycle (n+1, w1, ..., wn), in which n + 1 is the larger letter beyond both
ends of the word, so ``phi`` relinks that cycle and reads the word back
after n + 1. The Foata-word definition of ``psi`` and the splicing
definition of ``phi`` are kept as the test oracles.

The orbit of a permutation under ``psi`` has size 2^(n - fix - 2*cval)
and contains exactly one member without cyclic double ascents; ``orbit``
computes all of this by explicit enumeration, one relink per member, on
one pair of flat lists. It reads the representative off that walk, at
the step that has hopped exactly the double ascents, rather than calling
``psi`` for it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import MultiPoly
from .enumeration import ClassTooLargeError
from .permutations import (
    Permutation,
    left_to_right_maxima,
    stat_counts,
    _cycles_of_word,
    _link_classes,
    _links,
    _word_from_cycles,
)

__all__ = [
    "XFactorization",
    "x_factorize",
    "foata",
    "foata_inverse",
    "phi",
    "psi",
    "OrbitReport",
    "orbit",
    "orbit_exc_polynomial",
]


@dataclass(frozen=True)
class XFactorization:
    """The factorization w1 w2 x w4 w5 of a word around the letter x.

    w2 and w4 are the maximal runs of letters smaller than x immediately
    adjacent to x. Past each end of the word stands a virtual letter
    larger than every letter, so x at an end has a larger neighbour there.
    """

    w1: tuple[int, ...]
    w2: tuple[int, ...]
    x: int
    w4: tuple[int, ...]
    w5: tuple[int, ...]

    @property
    def left_is_smaller(self) -> bool:
        """Is the letter immediately left of x below x?"""
        return bool(self.w2)

    @property
    def right_is_smaller(self) -> bool:
        return bool(self.w4)

    @property
    def kind(self) -> str:
        """One of "double_ascent", "double_descent", "peak", "valley"."""
        left, right = self.left_is_smaller, self.right_is_smaller
        if left and right:
            return "peak"
        if left:
            return "double_ascent"
        if right:
            return "double_descent"
        return "valley"


def x_factorize(word: tuple[int, ...] | list[int], x: int) -> XFactorization:
    """Factor ``word`` as w1 w2 x w4 w5 around the letter x; past either
    end of the word, x counts as having a larger neighbour.

    >>> f = x_factorize((8, 3, 4, 2, 7, 9, 1, 5, 6), 7)
    >>> f.w1, f.w2, f.w4, f.w5
    ((8,), (3, 4, 2), (), (9, 1, 5, 6))
    """
    word = tuple(word)
    try:
        pos = word.index(x)
    except ValueError:
        raise ValueError(f"letter {x} does not occur in the word") from None
    lo = pos
    while lo > 0 and word[lo - 1] < x:
        lo -= 1
    hi = pos + 1
    while hi < len(word) and word[hi] < x:
        hi += 1
    return XFactorization(
        w1=word[:lo],
        w2=word[lo:pos],
        x=x,
        w4=word[pos + 1 : hi],
        w5=word[hi:],
    )


def foata(p: Permutation) -> Permutation:
    """Erase the parentheses of the canonical cycle form.

    >>> str(foata(Permutation((6, 4, 9, 2, 3, 7, 1, 8, 5))))
    '427168953'
    """
    return Permutation(tuple(a for cycle in _cycles_of_word(p.word) for a in cycle))


def foata_inverse(p: Permutation) -> Permutation:
    """Recover the cycles by cutting the word before each left-to-right maximum.

    Inverse of :func:`foata`: ``foata_inverse(foata(p)) == p``.
    """
    word = p.word
    cuts = sorted(left_to_right_maxima(word)) + [len(word) + 1]
    cycles = [word[start - 1 : end - 1] for start, end in zip(cuts, cuts[1:])]
    return Permutation(_word_from_cycles(cycles, len(word)))


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


def orbit(p: Permutation, collect_members: bool = False) -> OrbitReport:
    """Enumerate the orbit of p under the cycle-level hopping action.

    Only cyclic double ascents and cyclic double descents can move, so the
    orbit is generated by toggling subsets of those letters; the walk
    below flips one letter at a time (Gray order), relinking one letter of
    one pair of flat lists in place per member. ``size`` counts the
    distinct members the walk meets. The letters are classified once,
    from the same lists before the walk. The representative is read off
    the walk: the member at step j has toggled the letters of the Gray
    code j ^ (j >> 1), so the member that has hopped exactly the double
    ascents of p is met at the step whose Gray code is their mask, and
    the walk is split there. An orbit of more than ``class_cap()``
    members raises :class:`~cyclestat.enumeration.ClassTooLargeError`
    before the walk starts.

    >>> rep = orbit(Permutation((2, 3, 1)), collect_members=True)
    >>> rep.size, [str(m) for m in rep.members], str(rep.representative)
    (2, ['231', '312'], '312')
    """
    nxt, prv = _links(p.word)
    _, cval, _, cdasc, cddes, fix = _link_classes(nxt, prv)
    toggles = sorted(cdasc + cddes)
    walk = 1 << len(toggles)
    ClassTooLargeError.check(walk, "the orbit of %s", p)
    rising = set(cdasc)
    at = 0  # the step whose Gray code is the mask of the double ascents
    for bit, x in enumerate(toggles):
        if x in rising:
            at ^= (1 << (bit + 1)) - 1
    words = {p.word}
    _walk(nxt, prv, toggles, range(1, at + 1), words)
    representative = Permutation._trusted(tuple(nxt[1:]))
    _walk(nxt, prv, toggles, range(at + 1, walk), words)
    return OrbitReport(
        representative=representative,
        size=len(words),
        cval=len(cval),
        fix=len(fix),
        members=tuple(map(Permutation._trusted, sorted(words)))
        if collect_members
        else None,
    )


def _walk(
    nxt: list[int], prv: list[int], toggles: list[int], steps: range, words: set
) -> None:
    """Take the Gray-order steps of :func:`orbit`'s walk, adding each
    member met to ``words``: step j relinks the letter of j's lowest set
    bit."""
    for step in steps:
        bit = (step & -step).bit_length() - 1
        _relink(nxt, prv, toggles[bit])
        words.add(tuple(nxt[1:]))


def orbit_exc_polynomial(p: Permutation) -> MultiPoly:
    """Sum of t^exc over the orbit of p; equals t^cval (1+t)^(n-fix-2 cval)."""
    excs = Counter(
        stat_counts(member).exc for member in orbit(p, collect_members=True).members
    )
    return MultiPoly({(0, exc): count for exc, count in excs.items()})
