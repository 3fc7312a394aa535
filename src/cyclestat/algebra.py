"""Exact polynomial arithmetic over the rationals.

Everything here is exact: a coefficient is stored as an ``int`` where it
is integral and as a ``fractions.Fraction`` only where a scalar makes
one, equality is true equality, and no floating point is ever involved.
The public accessors (``terms``, ``coefficient``, ``evaluate`` and
``GammaExpansion.gammas``) return ``Fraction`` values whatever the
storage.

``MultiPoly`` is a sparse polynomial in the two variables s and t, keyed
by exponent pairs (deg_s, deg_t). Univariate polynomials in t are simply
the members with no s. It has the ring operations, scalar products and
division by t, and no power series: the paper's radicals are never
evaluated, since :mod:`cyclestat.formulas` reads Theorems 1 and 6 off
integer sums. The tests build those radicals literally, in a truncated
series of their own.

``eulerian(n)`` is the classic descent-counting polynomial, normalized so
that the lowest term is t^1 for n >= 1 (and 1 for n = 0); it is computed
from the standard triangle recurrence. ``gamma_expand`` rewrites a
polynomial that is symmetric about m/2 in the basis t^i (1+t)^(m-2i).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

__all__ = [
    "MultiPoly",
    "GammaExpansion",
    "GammaExpansionError",
    "TruncationResidueError",
    "eulerian",
    "gamma_expand",
]

Exponents = tuple[int, int]
Scalar = int | Fraction


class TruncationResidueError(ValueError):
    """A closed form left a nonzero coefficient above the degree its
    polynomial must stop at."""


class GammaExpansionError(ValueError):
    """The polynomial is not symmetric about the requested center."""

    def __init__(self, message: str, residual: "MultiPoly"):
        super().__init__(message)
        self.residual = residual


def _clean(terms: Mapping[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """The nonzero terms, each stored as an int where integral."""
    out = {}
    for key, value in terms.items():
        if type(value) is not int:
            value = Fraction(value)
            if value.denominator == 1:
                value = value.numerator
        if value:
            out[key] = value
    return out


def _convolve(a: Mapping[Exponents, Scalar], b: Mapping[Exponents, Scalar]) -> dict:
    """The product of two maps (deg_s, deg_t) -> coefficient, as a fresh
    dict: exponents add and coefficients multiply. A sum that cancels
    stays as a zero term; ``MultiPoly`` cleans its products, and the
    positive counts of :mod:`cyclestat.enumeration` never cancel."""
    out: dict[Exponents, Scalar] = {}
    get, b_items = out.get, b.items()
    for (i, j), x in a.items():
        for (k, l), y in b_items:
            key = (i + k, j + l)
            out[key] = get(key, 0) + x * y
    return out


class MultiPoly:
    """Sparse exact polynomial in s and t.

    Coefficients are stored as ``int`` where integral and as ``Fraction``
    where a scalar made one; the public accessors return ``Fraction``.

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

    def __add__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for key, value in other._terms.items():
            terms[key] = terms.get(key, 0) + value
        return MultiPoly(terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({key: -value for key, value in self._terms.items()})

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
            return MultiPoly({key: value * other for key, value in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return MultiPoly(_convolve(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one()
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

    def extract_t_factor(self) -> "MultiPoly":
        """Divide by t; every term must have deg_t >= 1."""
        if any(b < 1 for _, b in self._terms):
            raise ValueError("not divisible by t")
        return MultiPoly({(a, b - 1): c for (a, b), c in self._terms.items()})

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
    """Row n of the triangle counting permutations of [n] by descents:
    A(n, j) = (j+1) A(n-1, j) + (n-j) A(n-1, j-1), read off row n - 1
    padded with a zero at each end."""
    if n == 0:
        return (1,)
    prev = (0, *_descent_counts(n - 1), 0)
    return tuple((j + 1) * prev[j + 1] + (n - j) * prev[j] for j in range(n))


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
