import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclestat.algebra import (
    GammaExpansion,
    GammaExpansionError,
    MultiPoly,
    eulerian,
    gamma_expand,
)

from conftest import TruncSeries, all_perms, oracle_des

S = MultiPoly.s()
T = MultiPoly.t()
ONE = MultiPoly.one()


def random_poly(rng, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        key = (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1))
        terms[key] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return MultiPoly(terms)


class TestMultiPoly:
    def test_square_of_one_plus_t(self):
        assert (ONE + T) ** 2 == MultiPoly({(0, 0): 1, (0, 1): 2, (0, 2): 1})

    def test_evaluation_at_one_counts_terms(self):
        assert (T * eulerian(4)).evaluate(0, 1) == 24

    def test_mul_by_zero(self):
        assert eulerian(5) * MultiPoly.zero() == MultiPoly.zero()

    def test_no_zero_terms_stored(self):
        p = (ONE + T) - (ONE + T)
        assert p.terms == {}
        assert p.is_zero()

    def test_scalar_ops(self):
        assert 2 * T + 1 == MultiPoly({(0, 0): 1, (0, 1): 2})
        assert T - T == MultiPoly.zero()
        assert (1 - T) == MultiPoly({(0, 0): 1, (0, 1): -1})

    def test_coefficient_access(self):
        p = 3 * S**2 * T + Fraction(1, 2) * T
        assert p.coefficient(2, 1) == 3
        assert p.coefficient(0, 1) == Fraction(1, 2)
        assert p.coefficient(5, 5) == 0
        assert p.coefficient_of_s(2) == 3 * T
        assert p.s_degree() == 2 and p.t_degree() == 1

    def test_pow_errors(self):
        with pytest.raises(ValueError):
            T ** (-1)

    def test_extract_t_factor(self):
        assert (T + S * T**2).extract_t_factor() == ONE + S * T
        with pytest.raises(ValueError):
            (ONE + T).extract_t_factor()

    def test_rendering(self):
        p = MultiPoly({(2, 2): 1386, (0, 0): 1, (1, 1): -1})
        assert str(p) == "1 - s*t + 1386*s^2*t^2"
        assert str(MultiPoly.zero()) == "0"
        assert str(MultiPoly.constant(Fraction(1, 2))) == "1/2"

    def test_ring_laws_random(self):
        rng = random.Random(42)
        for _ in range(80):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a + b == b + a
            assert a * b == b * a


class TestEulerian:
    def test_base_cases(self):
        assert eulerian(0) == ONE
        assert eulerian(1) == T
        assert eulerian(2) == T + T**2

    def test_small_table(self):
        assert eulerian(4) == T + 11 * T**2 + 11 * T**3 + T**4

    def test_brute_force_oracle(self):
        for n in range(0, 8):
            expected = MultiPoly.zero()
            for p in all_perms(n):
                expected = expected + MultiPoly.monomial(
                    0, oracle_des(p.word) + (1 if n else 0)
                )
            assert eulerian(n) == expected

    def test_coefficient_sum_is_factorial(self):
        import math

        for n in range(0, 9):
            assert eulerian(n).evaluate(1, 1) == math.factorial(n)

    def test_gamma_positive_after_shift(self):
        for n in range(1, 9):
            shifted = eulerian(n).extract_t_factor()
            expansion = gamma_expand(shifted, n - 1)
            assert all(g >= 0 and g.denominator == 1 for g in expansion.gammas)
            assert expansion.reconstruct() == shifted

    def test_negative_n(self):
        with pytest.raises(ValueError):
            eulerian(-1)


class TestGammaExpansion:
    def test_shifted_quartic(self):
        f = ONE + 11 * T + 11 * T**2 + T**3
        expansion = gamma_expand(f, 3)
        assert expansion.gammas == (Fraction(1), Fraction(8))
        assert all(g >= 0 for g in expansion.gammas)
        assert expansion.reconstruct() == f

    def test_power_of_one_plus_t(self):
        for m in range(0, 6):
            expansion = gamma_expand((ONE + T) ** m, m)
            assert expansion.gammas == (Fraction(1),) + (Fraction(0),) * (m // 2)

    def test_plain_t(self):
        expansion = gamma_expand(T, 2)
        assert expansion.gammas == (Fraction(0), Fraction(1))

    def test_asymmetric_rejected(self):
        with pytest.raises(GammaExpansionError):
            gamma_expand(ONE + 2 * T, 1)
        with pytest.raises(GammaExpansionError):
            gamma_expand(4 * T + T**2, 2)

    def test_negative_gamma_is_success(self):
        expansion = gamma_expand(ONE + T + T**2, 2)
        assert expansion.gammas == (Fraction(1), Fraction(-1))
        assert not all(g >= 0 for g in expansion.gammas)
        assert expansion.reconstruct() == ONE + T + T**2

    def test_degree_above_center(self):
        with pytest.raises(GammaExpansionError):
            gamma_expand(T**3, 2)

    def test_bivariate_rejected(self):
        with pytest.raises(ValueError):
            gamma_expand(S + T, 2)

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(60):
            m = rng.randrange(0, 9)
            gammas = tuple(
                Fraction(rng.randrange(-5, 9)) for _ in range(m // 2 + 1)
            )
            f = GammaExpansion(m, gammas).reconstruct()
            expansion = gamma_expand(f, m)
            assert expansion.gammas == gammas


class TestTruncSeries:
    """The tests' own truncated series (``tests/conftest.py``), on which
    the radical oracles of ``TestRadicals`` are built."""

    def test_geometric(self):
        one = TruncSeries(ONE, 3)
        t = TruncSeries(T, 3)
        assert (one / (one - t)).polynomial(3) == (ONE + T + T**2 + T**3).terms

    def test_self_division(self):
        a = TruncSeries(ONE + T, 5)
        assert (a / a).polynomial(0) == ONE.terms

    def test_bivariate_geometric(self):
        one = TruncSeries(ONE, 4)
        st = TruncSeries(S * T, 4)
        expected = ONE - S * T + S**2 * T**2
        assert (one / (one + st)).polynomial(4) == expected.terms

    def test_division_by_non_unit(self):
        t = TruncSeries(T, 4)
        with pytest.raises(ValueError, match="constant term"):
            TruncSeries(ONE, 4) / t

    def test_sqrt_of_one(self):
        assert TruncSeries(ONE, 4).sqrt().polynomial(0) == ONE.terms

    def test_sqrt_of_perfect_square(self):
        a = TruncSeries((ONE + T) ** 2, 6)
        assert a.sqrt().polynomial(1) == (ONE + T).terms

    def test_sqrt_binomial_series(self):
        a = TruncSeries(ONE - T, 3).sqrt()
        assert a.terms == {
            (0, 0): 1,
            (0, 1): Fraction(-1, 2),
            (0, 2): Fraction(-1, 8),
            (0, 3): Fraction(-1, 16),
        }

    def test_sqrt_squares_back(self):
        rng = random.Random(5)
        for _ in range(25):
            p = ONE + random_poly(rng, max_deg=2, max_terms=4) * T + random_poly(
                rng, max_deg=2, max_terms=4
            ) * S
            a = TruncSeries(p, 8)
            root = a.sqrt()
            assert root * root == a

    def test_sqrt_requires_unit_one(self):
        with pytest.raises(ValueError):
            TruncSeries(2 * ONE, 4).sqrt()

    def test_extract_t_factor(self):
        a = TruncSeries(T + S * T**2, 5)
        assert a.divided(0, 1).polynomial(2) == (ONE + S * T).terms
        assert a.divided(0, 1).order == 4

    def test_extract_from_sqrt(self):
        inner = 1 - TruncSeries(ONE - T, 5).sqrt()
        quotient = inner.divided(0, 1)
        assert quotient.terms[(0, 0)] == Fraction(1, 2)
        assert quotient.terms[(0, 1)] == Fraction(1, 8)
        assert quotient.terms[(0, 2)] == Fraction(1, 16)

    def test_extract_errors(self):
        with pytest.raises(ValueError):
            TruncSeries(ONE, 3).divided(0, 1)
        with pytest.raises(ValueError):
            TruncSeries(T, 3).divided(1, 0)

    def test_to_poly_exact(self):
        a = TruncSeries((ONE + T) ** 2, 5)
        assert a.polynomial(5) == ((ONE + T) ** 2).terms

    def test_to_poly_residue_error(self):
        one = TruncSeries(ONE, 5)
        t = TruncSeries(T, 5)
        geom = one / (one - t)
        with pytest.raises(ValueError, match="above total degree 3"):
            geom.polynomial(3)
        # the only residue is then at degree 5, one above the maximum
        with pytest.raises(ValueError, match="s\\^0 t\\^5"):
            geom.polynomial(4)

    def test_order_shrinks_on_mixing(self):
        a = TruncSeries(T, 7)
        b = TruncSeries(S, 4)
        assert (a * b).order == 4
        assert (a + b).order == 4

    def test_ring_laws_random(self):
        rng = random.Random(17)
        for _ in range(50):
            a = TruncSeries(random_poly(rng), 5)
            b = TruncSeries(random_poly(rng), 5)
            c = TruncSeries(random_poly(rng), 5)
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c

    def test_inverse_times_self(self):
        rng = random.Random(3)
        for _ in range(25):
            p = ONE + random_poly(rng) * T
            a = TruncSeries(p, 6)
            assert a * a.inverse() == TruncSeries(ONE, 6)


class TestSeriesKernels:
    """The coefficient-by-coefficient inverse and square root of the
    tests' series against closed forms."""

    def test_sqrt_of_one_minus_four_t_is_catalan(self):
        order = 12
        root = TruncSeries(ONE - 4 * T, order).sqrt()
        catalan = [math.comb(2 * k, k) // (k + 1) for k in range(order)]
        expected = ONE - 2 * sum(
            (catalan[j - 1] * T**j for j in range(1, order + 1)), MultiPoly.zero()
        )
        assert root == TruncSeries(expected, order)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sqrt_of_one_plus_or_minus_t_is_binomial(self, sign):
        # sqrt(1 + x) = sum (-1)^j C(2j, j) / ((1 - 2j) 4^j) x^j, at x = sign*t.
        order = 10
        root = TruncSeries(ONE + sign * T, order).sqrt()
        for j in range(order + 1):
            expected = Fraction(
                (-sign) ** j * math.comb(2 * j, j), (1 - 2 * j) * 4**j
            )
            assert root.terms[(0, j)] == expected, j

    def test_inverse_with_fractional_non_unit_constant(self):
        order = 6
        a = TruncSeries(Fraction(3, 2) - T, order)
        inverse = a.inverse()
        for j in range(order + 1):
            assert inverse.terms[(0, j)] == Fraction(2, 3) ** (j + 1), j
        b = TruncSeries(Fraction(-2, 5) + 3 * S - T * S + T**2, order)
        assert b * b.inverse() == 1

    def test_public_coefficients_are_fractions(self):
        p = (ONE + T) ** 3 + 2 * S
        assert all(type(c) is Fraction for c in p.terms.values())
        assert type(p.coefficient(0, 1)) is Fraction
        assert type(p.coefficient(4, 4)) is Fraction
        assert type(p.evaluate(1, 2)) is Fraction
        gammas = gamma_expand(ONE + 11 * T + 11 * T**2 + T**3, 3).gammas
        assert gammas == (1, 8) and all(type(g) is Fraction for g in gammas)


def random_terms(rng, max_deg, max_terms=8):
    """A term dict with negative, zero and fractional coefficients."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        key = (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1))
        fraction = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        terms[key] = rng.choice([0, rng.randrange(-9, 10), fraction])
    return terms


def schoolbook(a, b, order):
    """Every product of a term of a with a term of b, summed; then every
    term of total degree above the order dropped."""
    full = {}
    for (i, j), x in a.terms.items():
        for (k, l), y in b.terms.items():
            full[(i + k, j + l)] = full.get((i + k, j + l), 0) + x * y
    return {key: c for key, c in full.items() if c and sum(key) <= order}


class TestSeriesProduct:
    """The series product against every product of two terms, summed and
    then cut at the smaller order."""

    def test_random_series_of_mixed_orders(self):
        rng = random.Random(41)
        for _ in range(300):
            o1, o2 = rng.randrange(9), rng.randrange(9)
            a = TruncSeries(random_terms(rng, o1), o1)
            b = TruncSeries(random_terms(rng, o2), o2)
            product = a * b
            assert isinstance(product, TruncSeries)
            assert product.order == min(o1, o2)
            assert product.terms == schoolbook(a, b, min(o1, o2))

    def test_polynomial_on_either_side(self):
        # The polynomial has terms above the order; they must drop out.
        rng = random.Random(43)
        for _ in range(200):
            order = rng.randrange(9)
            x = TruncSeries(random_terms(rng, order), order)
            p = MultiPoly(random_terms(rng, order + 3))
            expected = schoolbook(p, x, order)
            for product in (p * x, x * p):
                assert isinstance(product, TruncSeries) and product.order == order
                assert product.terms == expected

    def test_top_degree_terms_do_not_carry(self):
        # A term of total degree equal to the order stays; the products
        # with s above it drop out.
        for order in range(6):
            top = TruncSeries(S**order + T**order, order)
            assert (top * ONE).terms == top.terms
            assert (top * (1 + S)).terms == top.terms

    def test_order_zero(self):
        a = TruncSeries(Fraction(-3, 2) + S + T, 0)
        b = TruncSeries(4 - T**2, 0)
        assert (a * b).terms == {(0, 0): -6} and (a * b).order == 0

    def test_zero_series(self):
        zero = TruncSeries({}, 5)
        a = TruncSeries((1 + S + T) ** 3, 4)
        for product in (zero * a, a * zero, zero * zero, MultiPoly.zero() * a):
            assert product.terms == {}
        assert (zero * a).order == 4 and (zero * zero).order == 5


class TestSeriesPower:
    """The series power by repeated squaring against repeated
    multiplication, with zero and nonzero constant terms."""

    @pytest.mark.parametrize("c", [1, 2, -1, Fraction(1, 2), 0])
    def test_against_repeated_multiplication(self, c):
        rng = random.Random(47)
        for _ in range(6):
            order = rng.randrange(8)
            a = TruncSeries(random_terms(rng, order), order)
            a = a - a.terms.get((0, 0), 0) + c
            expected = TruncSeries(ONE, order)
            for k in range(21):
                power = a**k
                assert isinstance(power, TruncSeries) and power.order == order
                assert power == expected, (a, k)
                expected = expected * a

    def test_univariate_binomial(self):
        # (2 + t)^k has coefficients C(k, j) 2^(k-j), all below the order.
        order = 9
        power = TruncSeries(2 + T, order) ** 7
        assert power.terms == {
            (0, j): math.comb(7, j) * 2 ** (7 - j) for j in range(8)
        }

    def test_pow_errors(self):
        for c in (1, 0):
            a = TruncSeries(c + T, 4)
            with pytest.raises(ValueError):
                a ** (-1)
            with pytest.raises(ValueError):
                a**2.0


class TestReflectedSubtraction:
    @pytest.mark.parametrize(
        "value",
        [MultiPoly.one(), TruncSeries(MultiPoly.one(), 3)],
        ids=["MultiPoly", "TruncSeries"],
    )
    @pytest.mark.parametrize("other", [0.5, None], ids=["float", "None"])
    def test_unsupported_operand_raises_type_error(self, value, other):
        with pytest.raises(TypeError):
            other - value


# Property tests: exact arithmetic makes every ring law an equality, so
# Hypothesis can search freely; derandomized, with no example database,
# so a run is reproducible and writes nothing into the checkout.
PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)
scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), scalars, max_size=4
).map(MultiPoly)
orders = st.integers(0, 5)


def series_at(order):
    return polys.map(lambda p: TruncSeries(p, order))


class TestRingProperties:
    @PROPERTY_SETTINGS
    @given(polys, polys, polys, scalars)
    def test_multipoly_ring_laws_with_mixed_scalars(self, a, b, c, k):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a and a * b == b * a
        assert a - a == MultiPoly.zero() and a + (-a) == 0
        assert k * a == a * k and k + a == a + k
        assert (a + k) - k == a
        assert k - a == -(a - k)
        assert (a * k) * b == a * (k * b)
        assert a**2 == a * a

    @PROPERTY_SETTINGS
    @given(polys, orders, orders, st.data())
    def test_mixed_operations_take_the_smaller_order(self, p, o1, o2, data):
        x = data.draw(series_at(o1))
        y = data.draw(series_at(o2))
        k = data.draw(scalars)
        for result in (p + x, x + p, p - x, x - p, p * x, x * p, k * x, x * k):
            assert isinstance(result, TruncSeries) and result.order == o1
        as_poly = MultiPoly(x.polynomial(o1))
        assert p * x == TruncSeries(p * as_poly, o1)
        assert x - p == TruncSeries(as_poly - p, o1)
        for result in (x + y, y + x, x - y, y - x, x * y, y * x):
            assert isinstance(result, TruncSeries)
            assert result.order == min(o1, o2)
        assert isinstance(-x, TruncSeries) and (-x).order == o1
        assert isinstance(x**2, TruncSeries) and (x**2).order == o1

    @PROPERTY_SETTINGS
    @given(polys, orders, orders)
    def test_series_of_different_orders_differ(self, p, o1, o2):
        x, y = TruncSeries(p, o1), TruncSeries(p, o2)
        assert (x == y) == (o1 == o2)
        with pytest.raises(TypeError):
            hash(x)

    @PROPERTY_SETTINGS
    @given(polys, scalars.filter(bool), orders)
    def test_inverse(self, p, c, order):
        a = TruncSeries(c + p * T, order)
        assert a * a.inverse() == 1

    @PROPERTY_SETTINGS
    @given(polys, polys, orders)
    def test_sqrt_squares_back(self, p, q, order):
        a = TruncSeries(ONE + p * T + q * S, order)
        assert a.sqrt() * a.sqrt() == a
