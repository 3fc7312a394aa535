"""Exact polynomial and truncated power-series arithmetic over the rationals.

Everything here is exact: a coefficient is stored as an ``int`` where it
is integral and as a ``fractions.Fraction`` only where a division makes
one, equality is true equality, and no floating point is ever involved.
The public accessors (``terms``, ``coefficient``, ``evaluate`` and
``GammaExpansion.gammas``) return ``Fraction`` values whatever the
storage.

``MultiPoly`` is a sparse polynomial in the two variables s and t, keyed
by exponent pairs (deg_s, deg_t). Univariate polynomials in t are simply
the members with no s. ``TruncSeries`` is a ``MultiPoly`` plus a
truncation order, the quotient of that ring by total degree: all terms
with deg_s + deg_t > order are discarded, which makes units invertible
and series with constant term 1 admit square roots. The ring operations,
scalar products and division by s or t are written once, in
``MultiPoly``; a series adds only its truncating product with another
polynomial, how orders combine (mixing gives the smaller order), power,
inverse, division, square root, and the order it loses in a division by
s or t. The truncating product keys each term (a, b) by the packed
integer a*(order+1) + b, which is exact because no t-degree within the
order reaches the packing width. A power of a series with a nonzero
constant term, inverse and square root are one recurrence, J. C. P.
Miller's for the exponent p/q (k/1, -1/1 and 1/2), solved one total
degree at a time on the same packed keys; every division in it is
exact and gives an int whenever its quotient is integral, so an
integral radicand whose root is integral never builds a ``Fraction``.
It evaluates substitution formulas whose closed forms contain radicals,
such as the paper's Theorems 1 and 6 as the tests build them; whenever
the represented function is actually a polynomial, ``to_poly`` recovers
it and loudly rejects leftover high-order terms (the sign of a
too-small truncation order).

``eulerian(n)`` is the classic descent-counting polynomial, normalized so
that the lowest term is t^1 for n >= 1 (and 1 for n = 0); it is computed
from the standard triangle recurrence. ``gamma_expand`` rewrites a
polynomial that is symmetric about m/2 in the basis t^i (1+t)^(m-2i).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from typing import Mapping

__all__ = [
    "MultiPoly",
    "TruncSeries",
    "GammaExpansion",
    "GammaExpansionError",
    "TruncationResidueError",
    "eulerian",
    "gamma_expand",
]

Exponents = tuple[int, int]
Scalar = int | Fraction


class TruncationResidueError(ValueError):
    """A series expected to be a polynomial has nonzero high-order terms."""


class GammaExpansionError(ValueError):
    """The polynomial is not symmetric about the requested center."""

    def __init__(self, message: str, residual: "MultiPoly"):
        super().__init__(message)
        self.residual = residual


def _exact(value) -> Scalar:
    """value as an int when it is integral, else as a Fraction."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly, as an int when b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a, b))


def _clean(
    terms: Mapping[Exponents, Scalar], order: float = float("inf")
) -> dict[Exponents, Scalar]:
    """The nonzero terms with total degree at most order, each stored as
    an int where integral."""
    out = {}
    for key, value in terms.items():
        if key[0] + key[1] > order:
            continue
        if type(value) is not int:
            value = _exact(value)
        if value:
            out[key] = value
    return out


def _convolve(
    acc: dict[Exponents, Scalar],
    a: Mapping[Exponents, Scalar],
    b: Mapping[Exponents, Scalar],
) -> None:
    """acc += a * b, on term dicts."""
    get = acc.get
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            acc[key] = get(key, 0) + x * y


def _packed_parts(
    terms: Mapping[Exponents, Scalar], width: int
) -> list[list[tuple[int, Scalar]]]:
    """The terms of total degree below width, one list per degree, each
    term s^a t^b keyed by the packed integer a*width + b (exact at width
    order + 1, see ``TruncSeries.__mul__``)."""
    parts: list[list[tuple[int, Scalar]]] = [[] for _ in range(width)]
    for (a, b), c in terms.items():
        if a + b < width:
            parts[a + b].append((a * width + b, c))
    return parts


def _unpacked(items, width: int) -> dict[Exponents, Scalar]:
    """Packed (key, coefficient) pairs back on exponent pairs."""
    return {divmod(key, width): c for key, c in items}


class MultiPoly:
    """Sparse exact polynomial in s and t.

    Coefficients are stored as ``int`` where integral and as ``Fraction``
    where a division made one; the public accessors return ``Fraction``.

    >>> p = (MultiPoly.one() + MultiPoly.t()) ** 2
    >>> str(p)
    '1 + 2*t + t^2'
    >>> p.evaluate(0, 1)
    Fraction(4, 1)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        self._terms = _clean(terms or {})

    # -- constructors -------------------------------------------------
    # Static: reached through ``TruncSeries`` too, they build polynomials.

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly({(0, 0): 1})

    @staticmethod
    def constant(c: Scalar) -> "MultiPoly":
        return MultiPoly({(0, 0): c})

    @staticmethod
    def s() -> "MultiPoly":
        return MultiPoly({(1, 0): 1})

    @staticmethod
    def t() -> "MultiPoly":
        return MultiPoly({(0, 1): 1})

    @staticmethod
    def monomial(deg_s: int, deg_t: int, coeff: Scalar = 1) -> "MultiPoly":
        return MultiPoly({(deg_s, deg_t): coeff})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        return {key: Fraction(value) for key, value in self._terms.items()}

    def coefficient(self, deg_s: int, deg_t: int) -> Fraction:
        return Fraction(self._terms.get((deg_s, deg_t), 0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_univariate_in_t(self) -> bool:
        return all(ds == 0 for ds, _ in self._terms)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def s_degree(self) -> int:
        return max((ds for ds, _ in self._terms), default=-1)

    def t_degree(self) -> int:
        return max((dt for _, dt in self._terms), default=-1)

    def coefficient_of_s(self, deg_s: int) -> "MultiPoly":
        """The coefficient of s^deg_s, a polynomial in t alone."""
        return MultiPoly(
            {(0, dt): c for (ds, dt), c in self._terms.items() if ds == deg_s}
        )

    # -- ring operations ----------------------------------------------

    def _new(self, terms: Mapping[Exponents, Scalar]) -> "MultiPoly":
        """A value of the same kind as self (a series keeps its order)."""
        return MultiPoly(terms)

    def _meet(self, other: "MultiPoly") -> "MultiPoly":
        """The operand whose kind a result of self and other takes; a
        polynomial defers to the other operand, polynomial or series."""
        return other

    def __add__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for key, value in other._terms.items():
            terms[key] = terms.get(key, 0) + value
        return self._meet(other)._new(terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self._new({key: -value for key, value in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self._new(
                {key: value * other for key, value in self._terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        terms: dict[Exponents, Scalar] = {}
        _convolve(terms, self._terms, other._terms)
        return MultiPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._new({(0, 0): 1})
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, s_value: Scalar, t_value: Scalar) -> Fraction:
        s_value, t_value = Fraction(s_value), Fraction(t_value)
        total = Fraction(0)
        for (ds, dt), c in self._terms.items():
            total += c * s_value**ds * t_value**dt
        return total

    def _divided(self, ds: int, dt: int) -> dict[Exponents, Scalar]:
        """The terms of self / (s^ds t^dt); every term must be divisible."""
        if any(a < ds or b < dt for a, b in self._terms):
            raise ValueError(f"not divisible by {MultiPoly.monomial(ds, dt)}")
        return {(a - ds, b - dt): c for (a, b), c in self._terms.items()}

    def extract_t_factor(self) -> "MultiPoly":
        """Divide by t; every term must have deg_t >= 1."""
        return MultiPoly(self._divided(0, 1))

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for (ds, dt), c in sorted(self._terms.items()):
            factors = []
            if ds:
                factors.append("s" if ds == 1 else f"s^{ds}")
            if dt:
                factors.append("t" if dt == 1 else f"t^{dt}")
            if not factors:
                chunks.append(str(c))
            elif c == 1:
                chunks.append("*".join(factors))
            elif c == -1:
                chunks.append("-" + "*".join(factors))
            else:
                chunks.append(str(c) + "*" + "*".join(factors))
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self.terms!r})"


def _as_poly(value) -> "MultiPoly":
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.constant(value)
    return NotImplemented


@lru_cache(maxsize=None)
def _descent_counts(n: int) -> tuple[int, ...]:
    """Row n of the triangle counting permutations of [n] by descents."""
    if n == 0:
        return (1,)
    prev = _descent_counts(n - 1)
    row = []
    for j in range(n):
        here = 0
        if j < len(prev):
            here += (j + 1) * prev[j]
        if j - 1 >= 0 and j - 1 < len(prev):
            here += (n - j) * prev[j - 1]
        row.append(here)
    return tuple(row)


@lru_cache(maxsize=None)
def eulerian(n: int) -> MultiPoly:
    """The n-th Eulerian polynomial, lowest term t^1 for n >= 1.

    >>> str(eulerian(4))
    't + 11*t^2 + 11*t^3 + t^4'
    >>> str(eulerian(0))
    '1'
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return MultiPoly.one()
    return MultiPoly({(0, j + 1): c for j, c in enumerate(_descent_counts(n)) if c})


_ONE_PLUS_T = MultiPoly({(0, 0): 1, (0, 1): 1})


def _gamma_term(g: Scalar, i: int, m: int) -> MultiPoly:
    """g * t^i * (1+t)^(m-2i), one term of a gamma expansion about m/2."""
    return MultiPoly.monomial(0, i, g) * _ONE_PLUS_T ** (m - 2 * i)


@dataclass(frozen=True)
class GammaExpansion:
    """A polynomial written as sum of gamma_i * t^i * (1+t)^(m-2i).

    ``center_numerator`` is m (the center of symmetry is m/2). The
    expansion exists iff the source polynomial is symmetric about m/2;
    its gammas need not be nonnegative.
    """

    center_numerator: int
    gammas: tuple[Fraction, ...]

    def reconstruct(self) -> MultiPoly:
        total = MultiPoly.zero()
        for i, g in enumerate(self.gammas):
            if g:
                total = total + _gamma_term(g, i, self.center_numerator)
        return total


def gamma_expand(f: MultiPoly, center_numerator: int) -> GammaExpansion:
    """Expand a polynomial in t in the basis t^i (1+t)^(m-2i).

    Peels coefficients from the low-degree end; the expansion is unique
    when it exists. Raises :class:`GammaExpansionError` when f is not
    symmetric about m/2 (negative gamma values are *not* an error -- they
    come back as a successful expansion, whose gammas are then not all
    nonnegative).

    >>> f = MultiPoly({(0, 0): 1, (0, 1): 11, (0, 2): 11, (0, 3): 1})
    >>> gamma_expand(f, 3).gammas
    (Fraction(1, 1), Fraction(8, 1))
    """
    if not f.is_univariate_in_t():
        raise ValueError("gamma expansion applies to polynomials in t alone")
    m = center_numerator
    if m < 0 or f.t_degree() > m:
        raise GammaExpansionError(
            f"degree {f.t_degree()} exceeds center numerator {m}", f
        )
    residual = f
    gammas = []
    for i in range(m // 2 + 1):
        g = residual._terms.get((0, i), 0)
        gammas.append(Fraction(g))
        if g:
            residual = residual - _gamma_term(g, i, m)
    if not residual.is_zero():
        raise GammaExpansionError(
            f"polynomial is not symmetric about {m}/2", residual
        )
    return GammaExpansion(center_numerator=m, gammas=tuple(gammas))


class TruncSeries(MultiPoly):
    """Bivariate power series truncated at a total degree.

    A ``MultiPoly`` plus a truncation order: all terms with
    deg_s + deg_t > order are identified with zero, so the arithmetic is
    exact in the quotient ring. The ring operations, scalar products and
    factor extractions are ``MultiPoly``'s; combining a series with a
    polynomial, a scalar or another series gives a series at the smaller
    order, on either side. A power with a nonzero constant term, the
    inverse and the square root are one recurrence for the exponent p/q
    (:meth:`_rational_power`), which reads each new total degree off the
    lower ones.

    >>> one = TruncSeries.from_poly(MultiPoly.one(), 3)
    >>> t = TruncSeries.from_poly(MultiPoly.t(), 3)
    >>> str((one / (one - t)).to_poly(3))
    '1 + t + t^2 + t^3'
    """

    __slots__ = ("order",)

    def __init__(self, terms: Mapping[Exponents, Scalar], order: int):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self._terms = _clean(terms, order)
        self.order = order

    @classmethod
    def from_poly(cls, p: MultiPoly, order: int) -> "TruncSeries":
        return cls(p._terms, order)

    # -- how orders combine --------------------------------------------

    def _new(self, terms: Mapping[Exponents, Scalar]) -> "TruncSeries":
        return TruncSeries(terms, self.order)

    def _meet(self, other: MultiPoly) -> "TruncSeries":
        if isinstance(other, TruncSeries) and other.order < self.order:
            return other
        return self

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if isinstance(other, TruncSeries) and other.order != self.order:
            return False
        return super().__eq__(self._new(other._terms))

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other) -> "TruncSeries":
        """The truncated product, on packed exponents.

        Each term s^a t^b is keyed by the integer a*W + b, W = order + 1.
        That is exact: b <= order < W holds in both factors and in every
        product that stays within the order, so no carry crosses into a.
        The right terms are ordered by degree once per call, so each left
        term of degree i meets only the prefix of degree at most
        order - i, and the int-keyed accumulator is unpacked once by
        ``divmod``.
        """
        if not isinstance(other, MultiPoly):
            return super().__mul__(other)
        order = self._meet(other).order
        width = order + 1
        parts = _packed_parts(other._terms, width)
        right = list(chain.from_iterable(parts))
        ends = list(accumulate(map(len, parts)))
        acc: dict[int, Scalar] = {}
        get = acc.get
        for (a, b), x in self._terms.items():
            room = order - a - b
            if room < 0:
                continue
            p = a * width + b
            for q, y in right[: ends[room]]:
                q += p
                acc[q] = get(q, 0) + x * y
        return TruncSeries(_unpacked(acc.items(), width), order)

    __rmul__ = __mul__

    def _rational_power(self, p: int, q: int, first: Scalar) -> "TruncSeries":
        """self^(p/q) with constant term ``first``, in one pass.

        Solves g = f^(p/q) one total degree at a time by the Euler-operator
        recurrence (J. C. P. Miller; Knuth, TAOCP vol. 2, 4.7), which holds
        for any rational exponent: with c the constant term of f and f_i,
        g_i the parts of degree i, g_0 = first and
        q d c g_d = sum over 1 <= i <= d of ((p+q) i - q d) f_i g_(d-i),
        each quotient exact, on packed exponents as in the product.
        """
        c = self._terms[(0, 0)]
        width = self.order + 1
        f = _packed_parts(self._terms, width)
        g = [[(0, first)]]
        for d in range(1, width):
            acc: dict[int, Scalar] = {}
            get = acc.get
            for i, part in enumerate(f[1 : d + 1], 1):
                weight = (p + q) * i - q * d
                lower = g[d - i]
                for key, x in part:
                    x *= weight
                    for other, y in lower:
                        other += key
                        acc[other] = get(other, 0) + x * y
            divisor = q * d * c
            g.append([(key, _quotient(v, divisor)) for key, v in acc.items() if v])
        return TruncSeries(_unpacked(chain.from_iterable(g), width), self.order)

    def __pow__(self, exponent: int) -> "TruncSeries":
        """self^k in one pass of :meth:`_rational_power` (p/q = k/1, g_0 =
        c^k) when the constant term c is nonzero. A series without a
        constant term is raised by ``MultiPoly``'s repeated squaring."""
        c = self._terms.get((0, 0), 0)
        if not c or not isinstance(exponent, int) or exponent < 0:
            return super().__pow__(exponent)
        return self._rational_power(exponent, 1, c**exponent)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term c.

        One pass of :meth:`_rational_power` with p/q = -1 and g_0 = 1/c,
        where the recurrence reads g_d = -(1/c) * sum of f_i g_(d-i).
        """
        c = self._terms.get((0, 0), 0)
        if not c:
            raise ValueError("cannot invert a series with zero constant term")
        return self._rational_power(-1, 1, _quotient(1, c))

    def __truediv__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return TruncSeries(
                {key: _quotient(value, other) for key, value in self._terms.items()},
                self.order,
            )
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self * self._meet(other)._new(other._terms).inverse()

    def sqrt(self) -> "TruncSeries":
        """Square root with constant term 1 (the +1 branch).

        One pass of :meth:`_rational_power` with p/q = 1/2 and g_0 = 1,
        where the recurrence reads 2 d g_d = sum of (3i - 2d) f_i g_(d-i).
        Every quotient is exact and stays an int when it is integral, so
        an integral root never builds a ``Fraction``.

        >>> t = TruncSeries.from_poly(MultiPoly.t(), 3)
        >>> (1 - t).sqrt().terms[(0, 1)]
        Fraction(-1, 2)
        """
        if self._terms.get((0, 0), 0) != 1:
            raise ValueError("square root requires constant term exactly 1")
        return self._rational_power(1, 2, 1)

    def extract_t_factor(self) -> "TruncSeries":
        """Divide by t, reducing the truncation order by one."""
        return TruncSeries(self._divided(0, 1), self.order - 1)

    def extract_s_factor(self) -> "TruncSeries":
        """Divide by s, reducing the truncation order by one."""
        return TruncSeries(self._divided(1, 0), self.order - 1)

    def to_poly(self, max_total_degree: int) -> MultiPoly:
        """Interpret the series as a polynomial of bounded total degree.

        Any nonzero term with total degree above ``max_total_degree`` but
        within the truncation order means the series does not represent
        such a polynomial (or the order was too small to tell); that is
        reported loudly rather than truncated away.
        """
        rogue = {
            key: value
            for key, value in self._terms.items()
            if key[0] + key[1] > max_total_degree
        }
        if rogue:
            worst = sorted(rogue)[0]
            raise TruncationResidueError(
                f"nonzero term s^{worst[0]}*t^{worst[1]} above total degree "
                f"{max_total_degree} (truncation order {self.order}): "
                "not a polynomial of the asserted degree, or order too low"
            )
        return MultiPoly(self._terms)

    def __str__(self) -> str:
        return f"{super().__str__()} + O(degree {self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncSeries({self.terms!r}, order={self.order})"
