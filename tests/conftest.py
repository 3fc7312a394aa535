"""Shared brute-force oracles, kept independent of the library internals.

Everything here walks ``itertools.permutations`` directly and recomputes
statistics straight from the definitions, so the tests compare the
library's streaming enumeration and closed forms against a second,
structurally different computation. The radical oracles at the end
build the substitution series of Theorems 1 and 6 literally, square
roots and all, in truncated series.
"""
from __future__ import annotations

from itertools import permutations as raw_permutations
from math import comb

from cyclestat.algebra import MultiPoly, TruncSeries
from cyclestat.permutations import Permutation


def all_perms(n: int):
    """Every permutation of [n] as a Permutation, in lexicographic order."""
    return (Permutation(word) for word in raw_permutations(range(1, n + 1)))


def oracle_des(word: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def oracle_exc(word: tuple[int, ...]) -> int:
    return sum(1 for i, a in enumerate(word, start=1) if i < a)


def oracle_cval(word: tuple[int, ...]) -> int:
    n = len(word)
    inv = [0] * (n + 1)
    for pos, letter in enumerate(word, start=1):
        inv[letter] = pos
    return sum(1 for i in range(1, n + 1) if inv[i] > i < word[i - 1])


def oracle_fix(word: tuple[int, ...]) -> int:
    return sum(1 for i, a in enumerate(word, start=1) if i == a)


def oracle_cycle_sizes(word: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle sizes via destructive dict walking (independent of the library)."""
    edges = {i: a for i, a in enumerate(word, start=1)}
    sizes = []
    while edges:
        start, nxt = edges.popitem()
        size = 1
        while nxt != start:
            nxt = edges.pop(nxt)
            size += 1
        sizes.append(size)
    return tuple(sorted(sizes))


def oracle_foata_word(word: tuple[int, ...]) -> list[int]:
    """The canonical cycles of ``word`` (largest letter first, cycles by
    increasing largest letter) with their parentheses erased."""
    cycles = []
    seen = set()
    for start in range(1, len(word) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        a = word[start - 1]
        while a != start:
            cycle.append(a)
            seen.add(a)
            a = word[a - 1]
        top = cycle.index(max(cycle))
        cycles.append(cycle[top:] + cycle[:top])
    return [a for cycle in sorted(cycles) for a in cycle]


def oracle_hop(w: list[int], x: int, low_left: bool) -> list[int]:
    """Factor the word w as w1 w2 x w4 w5 (w2, w4 the maximal runs of
    letters below x beside it) and swap w2 and w4 when x is a double
    ascent or descent. A boundary letter stands past each end: a high one
    on the right, and on the left a low one if ``low_left``, else high."""
    pos = w.index(x)
    lo = pos
    while lo > 0 and w[lo - 1] < x:
        lo -= 1
    hi = pos + 1
    while hi < len(w) and w[hi] < x:
        hi += 1
    left_smaller = lo < pos or (low_left and lo == 0)  # w2, or a low boundary
    right_smaller = hi > pos + 1  # w4; otherwise a larger letter or the high boundary
    if left_smaller != right_smaller:
        w = w[:lo] + w[pos + 1 : hi] + [x] + w[lo:pos] + w[hi:]
    return w


def oracle_phi(word: tuple[int, ...], letters) -> tuple[int, ...]:
    """The word-level hop: :func:`oracle_hop` for each letter in turn,
    with high boundary letters at both ends."""
    w = list(word)
    for x in sorted(set(letters)):
        w = oracle_hop(w, x, low_left=False)
    return tuple(w)


def oracle_psi(word: tuple[int, ...], letters) -> tuple[int, ...]:
    """The cycle-level hop, straight from its Foata-word definition.

    Erase the parentheses; hop each non-fixed letter x in turn with
    :func:`oracle_hop`, judged with a low boundary letter on the left and
    a high one on the right; then cut before each left-to-right maximum
    to get the cycles.
    """
    n = len(word)
    w = oracle_foata_word(word)
    for x in sorted(set(letters)):
        if word[x - 1] != x:
            w = oracle_hop(w, x, low_left=True)
    image = [0] * n
    best = 0
    for i, a in enumerate(w):
        if a > best:
            best, first = a, a  # a left-to-right maximum opens a cycle
        if i + 1 == n or w[i + 1] > best:
            image[a - 1] = first  # the last letter of a cycle closes it
        else:
            image[a - 1] = w[i + 1]
    return tuple(image)


def oracle_theorem1_radicals(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Theorem 1's u(s,t) and v(s,t), with radicand (1+t)^2 - 4st:

    u = (1 + t^2 - 2st - (1-t) R) / (2 (1-s) t),
    v = ((1+t)^2 - 2st - (1+t) R) / (2 s t),      R = sqrt((1+t)^2 - 4st),

    from R at the given truncation order. Both numerators are divisible
    by the monomials below them, and each division by s or t lowers the
    order by one: u has order - 1, v order - 2."""
    s, t, one = MultiPoly.s(), MultiPoly.t(), MultiPoly.one()
    root = TruncSeries.from_poly((one + t) ** 2 - 4 * s * t, order).sqrt()
    u_num = (one + t * t - 2 * s * t) - (one - t) * root
    v_num = ((one + t) ** 2 - 2 * s * t) - (one + t) * root
    u = u_num.extract_t_factor() / 2 / (one - s)
    v = v_num.extract_s_factor().extract_t_factor() / 2
    return u, v


def oracle_theorem6_radicals(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Theorem 6's sqrt(1 - t) and w = 2 t^-1 (1 - sqrt(1-t)) - 1 at
    t = 4x, as series in x: sqrt(1 - 4x) at the given order and
    w = (1 - sqrt(1 - 4x)) / (2x) - 1 at order - 1."""
    root = TruncSeries.from_poly(MultiPoly.one() - 4 * MultiPoly.t(), order).sqrt()
    return root, (1 - root).extract_t_factor() / 2 - 1


def oracle_catalan(z: TruncSeries) -> TruncSeries:
    """C(z) = sum over m of binom(2m, m)/(m+1) z^m, the Catalan series,
    for a series z without constant term, at z's order."""
    power = total = TruncSeries.from_poly(MultiPoly.one(), z.order)
    for m in range(1, z.order + 1):
        power = power * z
        total = total + comb(2 * m, m) // (m + 1) * power
    return total
