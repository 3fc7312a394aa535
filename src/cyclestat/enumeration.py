"""Conjugacy classes of S_n and their distribution polynomials.

The conjugacy class with cycle type lambda has n!/z_lambda members, where
z_lambda = prod_i i^(m_i) m_i! is the centralizer order. Members are
generated directly from cycle structure with a canonical-anchor rule --
the smallest unused element always opens the next cycle, and that cycle's
size is chosen from the remaining distinct part sizes -- so each member
appears exactly once with no seen-set.

Distribution polynomials come by one of two routes, named by the
``route`` keyword of :func:`joint_counts` and the ``dist_*`` functions:

* ``"factorize"`` (the default): every letter's classification
  (excedance / cyclic valley / ...) only compares it with its neighbours
  inside its own cycle, so the joint (cval, exc) polynomial of a class is
  n!/prod_i(i!^(m_i) m_i!) * prod_i C_i(s,t)^(m_i), where C_i is the
  distribution over the cyclic orders of [i], computed by an O(i^3)
  insertion recursion. The 798,336-member class (1,5,5) takes well
  under a millisecond.
* ``"enumerate"``: fold the statistics over the stream of members
  without materializing it, adding each completed cycle's contribution
  once for the whole subtree of completions. The recursion stops at the
  last cycle longer than 1, after which only fixed points remain, and
  hands over its letter set as one block; the block's members, one per
  order of those letters, are still counted one at a time, in C. This
  is the brute-force oracle that every closed form in
  :mod:`cyclestat.formulas` is checked against, and the only route the
  member-count guardrail (:func:`class_cap`, set by
  ``CYCLESTAT_CLASS_CAP``) applies to.

Sets specified by a fixed-point count k (optionally also by a cyclic
valley count i) are unions of the conjugacy classes with m_1 = k, and are
handled that way by both routes.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, permutations
from math import factorial
from operator import lt
from typing import Callable, Iterator

from .algebra import MultiPoly
from .permutations import CycleType, Permutation, _word_from_cycles

__all__ = [
    "DEFAULT_CLASS_CAP",
    "ClassTooLargeError",
    "ClassSpec",
    "class_cap",
    "partitions_of",
    "z_lambda",
    "class_size",
    "iter_class",
    "orbit_representatives",
    "joint_counts",
    "dist_exc",
    "dist_cval",
    "dist_joint",
    "count_snki",
]

DEFAULT_CLASS_CAP = 10**8


class ClassTooLargeError(RuntimeError):
    """Enumeration refused: the class exceeds the configured member cap."""

    @classmethod
    def check(cls, members: int, what: str, *args) -> None:
        """Raise unless ``members`` is within :func:`class_cap`.

        The message names ``what % args``, formatted only when raising (as
        ``logging`` does), so that a walk over many small orbits pays
        nothing for it.
        """
        cap = class_cap()
        if members > cap:
            raise cls(f"{what % args} has {members} members, above the cap of {cap}")


def _partition_lists(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_lists(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[CycleType, ...]:
    """All partitions of n, in decreasing lexicographic order of their
    decreasing part-lists: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).

    Cached, since every stratum spec asks for them: the result is a
    tuple of frozen ``CycleType`` values, so callers share it safely.

    >>> [str(ct) for ct in partitions_of(4)]
    ['(4)', '(1,3)', '(2,2)', '(1,1,2)', '(1,1,1,1)']
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(CycleType(parts) for parts in _partition_lists(n, n))


def z_lambda(ct: CycleType) -> int:
    """Centralizer order: prod_i i^(m_i) * m_i!.

    >>> z_lambda(CycleType((1, 5, 5)))
    50
    """
    result = 1
    for size, mult in ct.multiplicities.items():
        result *= size**mult * factorial(mult)
    return result


@lru_cache(maxsize=None)
def class_size(ct: CycleType) -> int:
    """Number of permutations with the given cycle type: n!/z_lambda.
    Cached, since every enumeration checks its spec's total against the
    member cap.

    >>> class_size(CycleType((1, 5, 5)))
    798336
    """
    return factorial(ct.n) // z_lambda(ct)


@dataclass(frozen=True)
class ClassSpec:
    """A hop-invariant family of permutations to enumerate.

    Exactly one shape applies:

    * a single conjugacy class (``cycle_type`` set),
    * all permutations of length n with k fixed points, or
    * the previous further restricted to i cyclic valleys.
    """

    n: int
    cycle_type: CycleType | None = None
    fixed_points: int | None = None
    cval: int | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.cycle_type is not None:
            if self.fixed_points is not None or self.cval is not None:
                raise ValueError("cycle_type excludes the other parameters")
            if self.cycle_type.n != self.n:
                raise ValueError(
                    f"cycle type {self.cycle_type} is not a partition of {self.n}"
                )
            return
        k = self.fixed_points
        if k is None:
            raise ValueError("need a cycle type or a fixed-point count")
        if not 0 <= k <= self.n:
            raise ValueError(f"fixed-point count {k} out of range [0, {self.n}]")
        if self.cval is not None and not 0 <= self.cval <= (self.n - k) // 2:
            raise ValueError(
                f"cyclic valley count {self.cval} out of range "
                f"[0, {(self.n - k) // 2}]"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def of_cycle_type(cls, ct: CycleType) -> "ClassSpec":
        return cls(n=ct.n, cycle_type=ct)

    @classmethod
    def with_fixed_points(cls, n: int, k: int) -> "ClassSpec":
        return cls(n=n, fixed_points=k)

    @classmethod
    def with_fixed_points_and_valleys(cls, n: int, k: int, i: int) -> "ClassSpec":
        return cls(n=n, fixed_points=k, cval=i)

    @classmethod
    def parse(cls, text: str) -> "ClassSpec":
        """Parse "1,5,5", "1^1 5^2", "n=5,k=2", or "n=5,k=2,i=1"."""
        text = text.strip()
        if "=" in text:
            fields = {}
            for chunk in text.split(","):
                key, _, value = chunk.partition("=")
                key = key.strip()
                if key in fields:
                    raise ValueError(f"repeated key {key!r} in {text!r}")
                fields[key] = int(value)
            unknown = set(fields) - {"n", "k", "i"}
            if unknown or "n" not in fields or "k" not in fields:
                raise ValueError(f"expected n=..,k=..[,i=..], got {text!r}")
            return cls(n=fields["n"], fixed_points=fields["k"], cval=fields.get("i"))
        return cls.of_cycle_type(CycleType.from_text(text))

    # -- structure ----------------------------------------------------

    @property
    def fixed_point_count(self) -> int:
        """k: every member has exactly this many fixed points."""
        if self.cycle_type is not None:
            return self.cycle_type.fixed_point_count
        assert self.fixed_points is not None
        return self.fixed_points

    def cycle_types(self) -> tuple[CycleType, ...]:
        """The conjugacy classes whose union this spec denotes."""
        if self.cycle_type is not None:
            return (self.cycle_type,)
        return _types_with_fixed_points(self.n, self.fixed_points)

    def member_bound(self) -> int:
        """Total size of the covered classes (an upper bound for cval specs)."""
        return sum(class_size(ct) for ct in self.cycle_types())

    def instance(self) -> dict:
        """Parameter record for reports."""
        if self.cycle_type is not None:
            return {"lambda": list(self.cycle_type.parts)}
        if self.cval is None:
            return {"n": self.n, "k": self.fixed_points}
        return {"n": self.n, "k": self.fixed_points, "i": self.cval}

    def __str__(self) -> str:
        if self.cycle_type is not None:
            return str(self.cycle_type)
        return ",".join(f"{key}={value}" for key, value in self.instance().items())


@lru_cache(maxsize=None)
def _types_with_fixed_points(n: int, k: int) -> tuple[CycleType, ...]:
    """The partitions of n with exactly k parts equal to 1, cached per
    (n, k): every stratum and cell spec of that (n, k) asks for them."""
    return tuple(ct for ct in partitions_of(n) if ct.fixed_point_count == k)


def class_cap() -> int:
    """The member cap of every enumeration: ``CYCLESTAT_CLASS_CAP``,
    or 10^8 when unset or empty; ValueError unless a nonnegative integer."""
    raw = os.environ.get("CYCLESTAT_CLASS_CAP")
    if not raw:
        return DEFAULT_CLASS_CAP
    if not raw.strip().isdecimal():
        raise ValueError(
            f"CYCLESTAT_CLASS_CAP must be a nonnegative integer, got {raw!r}"
        )
    return int(raw)


@lru_cache(maxsize=None)
def _cycle_tables(m: int) -> tuple[bytes, bytes, bytes]:
    """(keep, cvals, excs) over the cycles (0, *order) of size m, one
    byte per order of the m - 1 letters 1..m-1 after the anchor 0, in
    ``itertools.permutations`` order; ``keep`` keeps every order.

    The anchor is the cycle minimum, so it is a cyclic valley and an
    excedance (for m >= 2), and the last letter is neither. In between,
    a letter is an excedance when it ascends and a cyclic valley when a
    descent runs into it and an ascent out: with the ascents of the
    order as a 0/1 string, exc counts its ones and cval its "01"s, which
    cannot overlap. Built from generators straight into ``bytes``: about
    3 (m-1)! bytes are kept, and no Python object per order. A fixed
    point (m = 1) and the empty cycle (m = 0) of a class of fixed points
    alone each have one order, with cval = exc = 0.

    >>> _cycle_tables(3)
    (b'\\x01\\x01', b'\\x01\\x01', b'\\x02\\x01')
    """
    if m <= 1:
        return b"\1", b"\0", b"\0"
    ascents = (bytes(map(lt, order, order[1:])) for order in permutations(range(1, m)))
    pairs = bytes(
        chain.from_iterable((1 + up.count(b"\0\1"), 1 + up.count(1)) for up in ascents)
    )
    return b"\1" * factorial(m - 1), pairs[0::2], pairs[1::2]


@lru_cache(maxsize=None)
def _valley_tables(m: int) -> tuple[bytes, bytes, bytes]:
    """:func:`_cycle_tables` keeping only the orders without a cyclic
    double ascent (cdasc = exc - cval = 0); cvals and excs list the kept
    orders only.

    >>> _valley_tables(3)
    (b'\\x00\\x01', b'\\x01', b'\\x01')
    """
    _, cvals, excs = _cycle_tables(m)
    keep = bytes(c == e for c, e in zip(cvals, excs))
    return keep, bytes(compress(cvals, keep)), bytes(compress(excs, keep))


def _iter_cycle_lists(
    tables: Callable[[int], tuple[bytes, bytes, bytes]],
    avail: tuple[int, ...],
    sizes: tuple[int, ...],
    head: tuple[tuple[int, ...], ...] = (),
    cval: int = 0,
    exc: int = 0,
) -> Iterator[tuple[tuple, int, int, tuple[int, ...]]]:
    """All ways to arrange ``avail`` into cycles of the given sizes,
    appended to the cycles ``head`` already built, keeping a cycle only
    where ``tables`` (:func:`_cycle_tables` or :func:`_valley_tables`)
    keeps its order, in blocks ``(head, cval, exc, cycle)``.

    The smallest available element anchors the next cycle; its size is
    chosen among the distinct remaining sizes, so equal-size cycles come
    out ordered by anchor and nothing repeats; the sizes stay sorted, so
    a size equal to the one before it is a repeat. A completed cycle's
    statistics are added once and shared by every completion below it,
    and a cycle the tables drop is cut before any completion below it.

    Fixed points are left out of ``head``: a letter in no cycle of a
    block is fixed. The recursion stops at the last cycle longer than 1
    after which only fixed points remain. That cycle's letters come out
    once, as ``cycle``: its anchor, then the other letters in increasing
    order. ``head`` and (cval, exc) are the long cycles and statistics
    of the prefix. The block stands for one member per order of
    ``cycle[1:]`` that ``tables(len(cycle))`` keeps, in ``permutations``
    order, adding that order's (cval, exc). The last long cycle is
    rarely the last cycle: the smallest free letter anchors each cycle,
    so a class with fixed points usually ends on one. A class of fixed
    points alone, n = 0 included, is one block with ``cycle = ()``, read
    through the one empty order of ``tables(0)``.

    The tables are exact: ``others`` comes sorted from ``combinations``
    of the sorted ``avail``, the anchor is below all of them, and cval
    and exc depend only on relative order, so the j-th order of
    ``permutations(others)`` has the statistics of the j-th order of
    1..m-1 after 0.
    """
    if max(sizes, default=1) == 1:
        yield head, cval, exc, ()
        return
    anchor, rest = avail[0], avail[1:]
    for idx, size in enumerate(sizes):
        if idx and size == sizes[idx - 1]:
            continue
        remaining_sizes = sizes[:idx] + sizes[idx + 1 :]
        if size == 1:
            yield from _iter_cycle_lists(tables, rest, remaining_sizes, head, cval, exc)
            continue
        last = max(remaining_sizes, default=1) == 1
        keep, cvals, excs = tables(size)
        for others in combinations(rest, size - 1):
            if last:
                yield head, cval, exc, (anchor, *others)
                continue
            others_set = set(others)
            remaining = tuple(e for e in rest if e not in others_set)
            for arrangement, d_cval, d_exc in zip(
                compress(permutations(others), keep), cvals, excs
            ):
                yield from _iter_cycle_lists(
                    tables,
                    remaining,
                    remaining_sizes,
                    head + ((anchor,) + arrangement,),
                    cval + d_cval,
                    exc + d_exc,
                )


@lru_cache(maxsize=None)
def _enumerated_counts(ct: CycleType) -> dict[tuple[int, int], int]:
    """Map (cval, exc) -> member count over the class, member by member.

    Each block of :func:`_iter_cycle_lists` passes one key per order of
    its last long cycle, the prefix's (cval, exc) plus that order's, to
    ``Counter.update``, which counts them one at a time in C.

    Cached because ``verify`` checks several claims against each class;
    callers must not mutate the result.
    """
    counts: Counter[tuple[int, int]] = Counter()
    for _, cval, exc, cycle in _iter_cycle_lists(
        _cycle_tables, tuple(range(1, ct.n + 1)), ct.parts
    ):
        _, cvals, excs = _cycle_tables(len(cycle))
        counts.update(zip(map(cval.__add__, cvals), map(exc.__add__, excs)))
    return counts


@lru_cache(maxsize=None)
def _cycle_counts(m: int) -> dict[tuple[int, int], int]:
    """Map (cval, exc) -> number of the (m-1)! cyclic orders of [m].

    Built by inserting the letter j + 1 into each cyclic order of [j],
    j >= 2, between some letter and its successor. The new letter is a
    cyclic peak, and only its two neighbours can change class: inserted
    just before a cyclic double ascent or just after a cyclic double
    descent, that letter becomes a valley; just before a peak, the peak
    becomes a double descent; just after a peak, a double ascent. An
    order of [j] has cdasc + 2 cpk + cddes = j slots, where cpk = cval,
    so its state is (cpk, cdasc) and cddes = j - cdasc - 2 cpk is
    derived; the number of slots of each kind weights that move. Read
    out, exc = cval + cdasc, one key per state. Callers must not mutate
    the cached result.

    >>> _cycle_counts(3)
    {(1, 1): 1, (1, 2): 1}
    """
    if m == 1:
        return {(0, 0): 1}
    states = {(1, 0): 1}  # the single cyclic order of [2]
    for j in range(2, m):
        grown: dict[tuple[int, int], int] = {}
        for (cpk, cdasc), count in states.items():
            for key, slots in (
                ((cpk + 1, cdasc - 1), cdasc),
                ((cpk, cdasc), cpk),
                ((cpk, cdasc + 1), cpk),
                ((cpk + 1, cdasc), j - cdasc - 2 * cpk),
            ):
                if slots:
                    grown[key] = grown.get(key, 0) + count * slots
        states = grown
    return {(cval, cval + cdasc): count for (cval, cdasc), count in states.items()}


def _factorized_counts(ct: CycleType) -> dict[tuple[int, int], int]:
    """Map (cval, exc) -> member count over the class, by the cycle product

    n!/prod_i(i!^(m_i) m_i!) * prod_i C_i(s,t)^(m_i),

    where C_i is :func:`_cycle_counts`: cval and exc add up over cycles
    and depend only on the relative order of each cycle's letters, and
    the scale counts the ways to split [n] into the cycles' letter sets.
    """
    product = {(0, 0): 1}
    denominator = 1
    for size, mult in ct.multiplicities.items():
        denominator *= factorial(size) ** mult * factorial(mult)
        factor = _cycle_counts(size)
        for _ in range(mult):
            grown: dict[tuple[int, int], int] = {}
            for (a_cval, a_exc), a in product.items():
                for (b_cval, b_exc), b in factor.items():
                    key = (a_cval + b_cval, a_exc + b_exc)
                    grown[key] = grown.get(key, 0) + a * b
            product = grown
    scale = factorial(ct.n) // denominator
    return {key: scale * count for key, count in product.items()}


def _check_route(route: str) -> None:
    if route not in ("factorize", "enumerate"):
        raise ValueError(f"route must be 'factorize' or 'enumerate', got {route!r}")


def _class_counts(spec: ClassSpec, route: str) -> dict[tuple[int, int], int]:
    """Map (cval, exc) -> member count over the spec, as a fresh dict."""
    _check_route(route)
    if route == "factorize":
        per_class = _factorized_counts
    else:
        ClassTooLargeError.check(spec.member_bound(), "%s", spec)
        per_class = _enumerated_counts
    combined: dict[tuple[int, int], int] = {}
    for ct in spec.cycle_types():
        for key, count in per_class(ct).items():
            if spec.cval is None or key[0] == spec.cval:
                combined[key] = combined.get(key, 0) + count
    return combined


def _members(
    spec: ClassSpec, tables: Callable[[int], tuple[bytes, bytes, bytes]]
) -> Iterator[Permutation]:
    """The members of the spec whose cycles ``tables`` keeps, in the
    order of :func:`_iter_cycle_lists`.

    Each block's base word holds the prefix's long cycles and fixes
    every other letter; each kept order of the last long cycle is
    written into it in turn, and the word is copied out as a member.
    """
    ClassTooLargeError.check(spec.member_bound(), "%s", spec)
    for ct in spec.cycle_types():
        for head, cval, _, cycle in _iter_cycle_lists(
            tables, tuple(range(1, ct.n + 1)), ct.parts
        ):
            base = _word_from_cycles(head, spec.n)
            if not cycle:  # fixed points alone: the base word is the member
                yield Permutation._trusted(base)
                continue
            keep, cvals, _ = tables(len(cycle))
            orders = compress(permutations(cycle[1:]), keep)
            if spec.cval is not None:
                orders = compress(orders, map((spec.cval - cval).__eq__, cvals))
            word, anchor = list(base), cycle[0]
            for order in orders:
                last = anchor
                for letter in order:
                    word[last - 1] = letter
                    last = letter
                word[last - 1] = anchor
                yield Permutation._trusted(tuple(word))


def iter_class(spec: ClassSpec) -> Iterator[Permutation]:
    """Stream every member of the spec exactly once.

    Raises :class:`ClassTooLargeError` before yielding anything when the
    covered classes hold more than :func:`class_cap` members.

    >>> sorted(str(p) for p in iter_class(ClassSpec.parse("3")))
    ['231', '312']
    """
    yield from _members(spec, _cycle_tables)


def orbit_representatives(spec: ClassSpec) -> Iterator[Permutation]:
    """The members of :func:`iter_class` with no cyclic double ascent
    (cdasc = exc - cval), one per orbit of cyclic valley-hopping, in
    :func:`iter_class` order.

    The recursion reads :func:`_valley_tables`, so a cycle with a double
    ascent is dropped as soon as it is built, with every completion
    below it: no member with a double ascent is ever made.

    >>> [str(p) for p in orbit_representatives(ClassSpec.parse("3"))]
    ['312']
    """
    yield from _members(spec, _valley_tables)


def joint_counts(
    spec: ClassSpec, *, route: str = "factorize"
) -> dict[tuple[int, int], int]:
    """Map (cval, exc) -> number of members of the spec, as a fresh dict.

    ``route="factorize"`` multiplies single-cycle distributions (see
    :func:`_factorized_counts`) and visits no member, so its cost follows
    the number of (cval, exc) pairs, not the class size.
    ``route="enumerate"`` splits [n] into cycles member by member, in
    the cycle recursion of :func:`iter_class`, and reads each cycle's
    (cval, exc) from :func:`_cycle_tables`, so it adds every member's
    statistics one at a time but classifies no member word; the members
    that differ only in the order of the last long cycle are counted by
    one ``Counter.update`` over that cycle's table (see
    :func:`_enumerated_counts`). It is the oracle the closed forms are
    checked against, and the only route the :func:`class_cap`
    guardrail applies to.

    >>> spec = ClassSpec.parse("1,2,2")
    >>> sorted(joint_counts(spec).items())
    [((2, 2), 15)]
    >>> joint_counts(spec) == joint_counts(spec, route="enumerate")
    True
    """
    return _class_counts(spec, route)


def dist_joint(spec: ClassSpec, *, route: str = "factorize") -> MultiPoly:
    """Sum of s^cval t^exc over the members of the spec.

    >>> str(dist_joint(ClassSpec.parse("3")))
    's*t + s*t^2'
    """
    return MultiPoly(_class_counts(spec, route))


def _marginal(counts: dict[tuple[int, int], int], index: int) -> MultiPoly:
    terms: dict[tuple[int, int], int] = {}
    for key, count in counts.items():
        slot = (0, key[index])
        terms[slot] = terms.get(slot, 0) + count
    return MultiPoly(terms)


def dist_exc(spec: ClassSpec, *, route: str = "factorize") -> MultiPoly:
    """Sum of t^exc over the members of the spec."""
    return _marginal(_class_counts(spec, route), 1)


def dist_cval(spec: ClassSpec, *, route: str = "factorize") -> MultiPoly:
    """Sum of t^cval over the members of the spec."""
    return _marginal(_class_counts(spec, route), 0)


def count_snki(n: int, k: int, i: int, *, route: str = "factorize") -> int:
    """Number of permutations of length n with k fixed points and i cyclic
    valleys.

    >>> count_snki(3, 0, 1), count_snki(3, 1, 1), count_snki(4, 4, 0)
    (2, 3, 1)
    """
    if not 0 <= k <= n:
        raise ValueError(f"fixed-point count {k} out of range [0, {n}]")
    _check_route(route)
    if i < 0 or i > (n - k) // 2:
        return 0
    spec = ClassSpec.with_fixed_points_and_valleys(n, k, i)
    return sum(_class_counts(spec, route).values())
