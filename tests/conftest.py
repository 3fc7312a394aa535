"""Shared brute-force oracles, kept independent of the library internals.

Everything here walks ``itertools.permutations`` directly and recomputes
statistics straight from the definitions, so the tests compare the
library's streaming enumeration and closed forms against a second,
structurally different computation. The radical oracles at the end
build the substitution series of Theorems 1 and 6 literally, square
roots and all, in a truncated series of this file's own
(:class:`TruncSeries`), which imports nothing from ``cyclestat.algebra``:
the library reads both theorems off integer sums and builds no series.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations as raw_permutations
from math import comb

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




class TruncSeries:
    """A power series in s and t truncated at a total degree, written
    naively and apart from the library: ``terms`` maps (deg_s, deg_t) to
    a nonzero Fraction, for every term of total degree at most ``order``.

    The product is schoolbook; the inverse and the square root are solved
    one coefficient at a time, in order of total degree. An int, a
    Fraction or anything with a ``terms`` mapping (a ``MultiPoly``) takes
    the order of the series it meets; two series meet at the smaller
    order."""

    def __init__(self, terms, order: int):
        self.order = order
        self.terms = {
            (a, b): Fraction(c)
            for (a, b), c in getattr(terms, "terms", terms).items()
            if c and a + b <= order
        }

    def _lift(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries({(0, 0): other}, self.order)
        if hasattr(other, "terms"):
            return TruncSeries(other, self.order)
        raise TypeError(f"cannot mix {type(other).__name__} with a series")

    def _keys(self):
        """Every exponent pair within the order, by total degree."""
        return [(a, d - a) for d in range(self.order + 1) for a in range(d + 1)]

    def __add__(self, other) -> "TruncSeries":
        other = self._lift(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return TruncSeries(terms, min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return self * -1

    def __sub__(self, other) -> "TruncSeries":
        return self + -self._lift(other)

    def __rsub__(self, other) -> "TruncSeries":
        return self._lift(other) + -self

    def __mul__(self, other) -> "TruncSeries":
        other = self._lift(other)
        order = min(self.order, other.order)
        terms = {}
        for (a, b), x in self.terms.items():
            for (c, d), y in other.terms.items():
                if a + b + c + d <= order:
                    terms[a + c, b + d] = terms.get((a + c, b + d), 0) + x * y
        return TruncSeries(terms, order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncSeries":
        return self * self._lift(other).inverse()

    def __pow__(self, k: int) -> "TruncSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = self._lift(1), self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        return self.order == other.order and self.terms == other.terms

    def inverse(self) -> "TruncSeries":
        """g with self * g = 1: g_0 = 1/f_0, and each later g_k is
        -(1/f_0) times the sum of f_j g_(k-j) over the nonzero j."""
        f0 = self.terms.get((0, 0))
        if not f0:
            raise ValueError("cannot invert a series with zero constant term")
        g: dict[tuple[int, int], Fraction] = {}
        for i, j in self._keys():
            value = (((i, j) == (0, 0)) - _cross(self.terms, g, i, j)) / f0
            if value:
                g[i, j] = value
        return TruncSeries(g, self.order)

    def sqrt(self) -> "TruncSeries":
        """g with g * g = self and g_0 = 1: each later g_k is half of f_k
        less the sum of g_j g_(k-j) over the j other than 0 and k."""
        if self.terms.get((0, 0)) != 1:
            raise ValueError("square root requires constant term 1")
        g: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
        for i, j in self._keys()[1:]:
            value = Fraction(self.terms.get((i, j), 0) - _cross(g, g, i, j)) / 2
            if value:
                g[i, j] = value
        return TruncSeries(g, self.order)

    def divided(self, ds: int, dt: int) -> "TruncSeries":
        """self / (s^ds t^dt), at an order lower by ds + dt; every term
        must be divisible."""
        if any(a < ds or b < dt for a, b in self.terms):
            raise ValueError(f"not divisible by s^{ds} t^{dt}")
        return TruncSeries(
            {(a - ds, b - dt): c for (a, b), c in self.terms.items()},
            self.order - ds - dt,
        )

    def polynomial(self, degree: int) -> dict[tuple[int, int], Fraction]:
        """The terms, when none lies above total degree ``degree``; a
        term there means the series is no polynomial of that degree, or
        the order was too low to tell."""
        above = sorted(key for key in self.terms if sum(key) > degree)
        if above:
            a, b = above[0]
            raise ValueError(f"nonzero term s^{a} t^{b} above total degree {degree}")
        return self.terms

    def __repr__(self) -> str:
        return f"TruncSeries({self.terms!r}, order={self.order})"


def _cross(f, g, i, j):
    """The sum of f_(a,b) g_(i-a,j-b) over the nonzero (a, b) of f whose
    partner g holds: the terms of [s^i t^j] f*g already known while g is
    being solved for."""
    return sum(
        x * g[i - a, j - b]
        for (a, b), x in f.items()
        if (a or b) and (i - a, j - b) in g
    )


def oracle_theorem1_radicals(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Theorem 1's u(s,t) and v(s,t), with radicand (1+t)^2 - 4st:

    u = (1 + t^2 - 2st - (1-t) R) / (2 (1-s) t),
    v = ((1+t)^2 - 2st - (1+t) R) / (2 s t),      R = sqrt((1+t)^2 - 4st),

    from R at the given truncation order. Both numerators are divisible
    by the monomials below them, and each division by s or t lowers the
    order by one: u has order - 1, v order - 2."""
    s, t = TruncSeries({(1, 0): 1}, order), TruncSeries({(0, 1): 1}, order)
    root = ((1 + t) ** 2 - 4 * s * t).sqrt()
    u = ((1 + t * t - 2 * s * t) - (1 - t) * root).divided(0, 1) / 2 / (1 - s)
    v = (((1 + t) ** 2 - 2 * s * t) - (1 + t) * root).divided(1, 1) / 2
    return u, v


def oracle_theorem6_radicals(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Theorem 6's sqrt(1 - t) and w = 2 t^-1 (1 - sqrt(1-t)) - 1 at
    t = 4x, as series in x: sqrt(1 - 4x) at the given order and
    w = (1 - sqrt(1 - 4x)) / (2x) - 1 at order - 1."""
    root = (1 - 4 * TruncSeries({(0, 1): 1}, order)).sqrt()
    return root, (1 - root).divided(0, 1) / 2 - 1


def oracle_catalan(z: TruncSeries) -> TruncSeries:
    """C(z) = sum over m of binom(2m, m)/(m+1) z^m, the Catalan series,
    for a series z without constant term, at z's order."""
    power = total = TruncSeries({(0, 0): 1}, z.order)
    for m in range(1, z.order + 1):
        power = power * z
        total = total + comb(2 * m, m) // (m + 1) * power
    return total
