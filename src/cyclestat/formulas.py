"""Closed forms for the distribution polynomials, with verification.

Each operation here has a brute-force counterpart in
:mod:`cyclestat.enumeration`; the point of this module is to compute the
same polynomials along an entirely different route and to package the
comparison as machine-checkable reports. Every check compares against
``route="enumerate"``, which visits each member, never against the
factorized default route.

The routes implemented:

* ``brenti``: the excedance distribution over a conjugacy class as a
  product of Eulerian polynomials scaled by the class size.
* ``theorem1_joint``: the joint (cval, exc) distribution over a
  conjugacy class, obtained from the same product by substituting two
  algebraic functions u(s,t), v(s,t) that involve sqrt((1+t)^2 - 4st);
  everything is evaluated in exact truncated power series and converted
  back to a polynomial with a loud residue check.
* ``theorem6_cval``: the cyclic-valley distribution, via the analogous
  univariate substitution w(t) built from sqrt(1-t).

These three share one Brenti product,
(n!/z_lambda) * core^(n - m_1) * prod [A_(i-1)(x)/(i-1)!]^(m_i), and
differ only in the pair (core, x): (1, t) for ``brenti``,
((1+u)/(1+uv), v) for Theorem 1 and (1 + sqrt(1-t), w) for Theorem 6.
For Theorems 1 and 6 each pair (core, x) depends only on the truncation
order, not on the class, so it is built once per order, with its
factors A_d(x), each summed into one dict from one shared table of the
powers of x. A class then costs only its own product, in which the core
is cut to the order the Eulerian factors leave before it is raised to
its power: those factors have no term below a known degree V, so the
terms of the power above N - V would land above the product's order N.
The core has a nonzero constant term, so that power is one pass of
``TruncSeries``'s power recurrence rather than repeated squaring.
* ``lemma1_check`` / ``theorem4_check`` / ``theorem5_check``: identities
  relating the excedance distribution to the joint (or cval)
  distribution over any hop-invariant family, verified in cleared
  polynomial form (no radicals, exact equality).
* ``theorem2_check``, which decides Theorem 2, and the corollary
  checks: gamma-positivity of the excedance distribution, with the two
  readings of its gammas that ``theorem2_gamma`` counts (orbit
  representatives without cyclic double ascents, orbit counts over 2^j).
  ``theorem2_gamma`` is the one count of those gammas: Theorem 5 and
  Corollaries 3 and 4 reconstruct their right sides from its
  ``by_orbit_scaling`` reading, and all four compare the enumerated
  dist_exc with a reconstruction in one shared check.
* ``egf_snki``: the table of counts by (length, fixed points, cyclic
  valleys) extracted from an exponential generating function, computed
  radical-free as a truncated series in x over exact polynomials.

Claim identifiers (``CLAIMS``: "brenti", "theorem1", "cor3", ...) are the
stable vocabulary of reports and of the command-line ``verify``
subcommand; ``claim_reports`` yields each claim's reports over its range.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

from .algebra import (
    GammaExpansion,
    GammaExpansionError,
    MultiPoly,
    TruncSeries,
    eulerian,
    gamma_expand,
)
from .enumeration import (
    ClassSpec,
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    joint_counts,
    orbit_representatives,
)
# ``orbit`` is no longer called here, but stays importable from this module:
# benchmarks/test_benchmark.py checks that the tracer wraps and restores it here.
from .hopping import orbit, orbit_counts  # noqa: F401
from .permutations import CycleType, Permutation

__all__ = [
    "VerificationReport",
    "Theorem2Gamma",
    "brenti",
    "theorem1_joint",
    "theorem6_cval",
    "lemma1_check",
    "theorem2_gamma",
    "theorem2_check",
    "corollary2_check",
    "corollary3_check",
    "corollary4_check",
    "theorem4_check",
    "theorem5_check",
    "egf_snki",
    "CLAIMS",
    "claim_reports",
]


def _first_difference(lhs: MultiPoly, rhs: MultiPoly):
    for key in sorted(lhs._terms.keys() | rhs._terms.keys()):
        a, b = lhs._terms.get(key, 0), rhs._terms.get(key, 0)
        if a != b:
            return {"monomial": {"s": key[0], "t": key[1]}, "lhs": str(a), "rhs": str(b)}
    return None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity instance: pass iff lhs == rhs.

    ``passed`` is computed once per report and cached: both sides are
    immutable, so every later reading (``verdict``, the JSON record)
    sees the same comparison. ``dataclasses.replace`` builds a new
    report, which compares its own sides afresh.
    """

    claim: str
    instance: dict
    lhs: MultiPoly
    rhs: MultiPoly

    @cached_property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def witness(self):
        """First differing coefficient, or None when the check passes."""
        return _first_difference(self.lhs, self.rhs)

    def to_json_record(self) -> dict:
        record = {"claim": self.claim, "instance": self.instance, "verdict": self.verdict}
        if not self.passed:
            record["witness"] = self.witness
        return record


def _require_integral(p: MultiPoly, context: str) -> MultiPoly:
    if not p.has_integer_coefficients():
        raise ArithmeticError(f"{context}: non-integer coefficient in {p}")
    return p


def _brenti_product(ct: CycleType, core: MultiPoly, factor) -> MultiPoly:
    """Brenti's product with core and Eulerian factors substituted:
    (n!/z_lambda) * core^(n - m_1) * prod over part sizes i of
    [factor(i-1)/(i-1)!]^(m_i), where factor(d) is A_d(x): ``eulerian``
    itself for ``brenti`` (x = t), series for Theorems 1 and 6.

    The Eulerian factors are multiplied unscaled and the scalar is applied
    once, as the integer multinomial n!/prod_i(i!^(m_i) m_i!), which is
    (n!/z_lambda)/prod_i (i-1)!^(m_i).

    When the Eulerian part P is a series of order N whose lowest total
    degree is V, the core is cut to order N - V before it is raised to
    its power: a term of core^k above N - V meets only terms of P of
    degree >= V, so it lands above N. P times that power, read as a
    polynomial, keeps P's order N. A polynomial P (``brenti``, or the
    empty class, which has no factor) takes the plain product."""
    part = MultiPoly.one()
    denominator = 1
    for size, mult in sorted(ct.multiplicities.items()):
        denominator *= factorial(size) ** mult * factorial(mult)
        part = part * factor(size - 1) ** mult
    k = ct.n - ct.fixed_point_count
    if isinstance(part, TruncSeries):
        cut = TruncSeries.from_poly(core, part.order - min(map(sum, part._terms)))
        result = part * MultiPoly((cut**k)._terms)
    else:
        result = core**k * part
    return result * (factorial(ct.n) // denominator)


def brenti(ct: CycleType) -> MultiPoly:
    """Excedance distribution over the class of cycle type lambda:
    (n!/z_lambda) * prod over part sizes i of [A_(i-1)(t)/(i-1)!]^(m_i).

    >>> str(brenti(CycleType((3,))))
    't + t^2'
    """
    return _require_integral(
        _brenti_product(ct, MultiPoly.one(), eulerian), "brenti"
    )


def _eulerian_at(x: TruncSeries):
    """d -> A_d(x), each factor built once, as sum_j c_j x^j read from one
    table of powers [1, x, x^2, ...] that grows as higher d ask for it,
    so every power of x is multiplied out once for all d. Every c_j x^j
    term is added into one dict, from which one series is built."""
    powers = [x._new({(0, 0): 1})]

    @lru_cache(maxsize=None)
    def factor(d: int) -> TruncSeries:
        while len(powers) <= d:
            powers.append(powers[-1] * x)
        terms: dict = {}
        for (_, j), c in eulerian(d)._terms.items():
            for key, value in powers[j]._terms.items():
                terms[key] = terms.get(key, 0) + c * value
        return x._new(terms)

    return factor


@lru_cache(maxsize=None)
def _theorem1_series(order: int):
    """Theorem 1's pair ((1+u)/(1+uv), d -> A_d(v)) at one truncation
    order; it depends on no class, so each order builds it once per
    process. The series u(s,t), v(s,t) have radicand (1+t)^2 - 4st:

    u = (1 + t^2 - 2st - (1-t) R) / (2 (1-s) t),
    v = ((1+t)^2 - 2st - (1+t) R) / (2 s t),      R = sqrt((1+t)^2 - 4st).

    Both numerators are divisible by the monomials below them, so the
    quotients are honest power series; dividing by t (and s) reduces the
    carried truncation order, which is why :func:`theorem1_joint` asks
    for a little headroom.
    """
    s = MultiPoly.s()
    t = MultiPoly.t()
    one = MultiPoly.one()

    radicand = TruncSeries.from_poly((one + t) ** 2 - 4 * s * t, order)
    root = radicand.sqrt()

    u_num = (one + t * t - 2 * s * t) - (one - t) * root
    u = u_num.extract_t_factor() / 2 / (one - s)

    v_num = ((one + t) ** 2 - 2 * s * t) - (one + t) * root
    v = v_num.extract_s_factor().extract_t_factor() / 2
    return (1 + u) / (1 + u * v), _eulerian_at(v)


@lru_cache(maxsize=None)
def _theorem6_series(order: int):
    """Theorem 6's pair (1 + sqrt(1-4x), d -> A_d(w)) at t = 4x, built
    once per truncation order, as :func:`_theorem1_series`."""
    root = TruncSeries.from_poly(MultiPoly.one() - 4 * MultiPoly.t(), order).sqrt()
    w = (1 - root).extract_t_factor() / 2 - 1
    return 1 + root, _eulerian_at(w)


def theorem1_joint(ct: CycleType) -> MultiPoly:
    """Joint (cval, exc) distribution over a conjugacy class, closed form.

    (n!/z_lambda) * ((1+u)/(1+uv))^(n - m_1) * prod [A_(i-1)(v)/(i-1)!]^(m_i)
    evaluated in series truncated at total degree n + 4 and converted back
    to an exact polynomial. Dividing out s and t inside v leaves order
    n + 2, so the conversion's residue check still sees the degrees above
    n. The substituted series depend only on the order, so they are
    built once per order and process; a class costs only its own
    product. Must equal ``dist_joint`` of the same class.

    >>> str(theorem1_joint(CycleType((3,))))
    's*t + s*t^2'
    """
    result = _brenti_product(ct, *_theorem1_series(ct.n + 4))
    return _require_integral(result.to_poly(ct.n), "theorem1_joint")


def theorem6_cval(ct: CycleType) -> MultiPoly:
    """Cyclic-valley distribution over a conjugacy class, closed form.

    (n!/z_lambda) * (1 + sqrt(1-t))^(n - m_1) * prod [A_(i-1)(w)/(i-1)!]^(m_i)
    with w = 2 t^-1 (1 - sqrt(1-t)) - 1, evaluated in series truncated at
    degree n + 4, as in :func:`theorem1_joint`; the substituted series
    are likewise built once per order and process. Must equal
    ``dist_cval`` of the same class.

    >>> str(theorem6_cval(CycleType((3,))))
    '2*t'
    """
    # Evaluated at t = 4x, where sqrt(1 - 4x) and w are integral series
    # in x; the coefficient of x^k is then 4^k times that of t^k.
    at_4x = _brenti_product(ct, *_theorem6_series(ct.n + 4))
    result = TruncSeries(
        {(0, k): Fraction(c, 4**k) for (_, k), c in at_4x._terms.items()}, at_4x.order
    )
    return _require_integral(result.to_poly(ct.n), "theorem6_cval")


@lru_cache(maxsize=None)
def _profile_terms(m: int, cval: int, exc: int) -> tuple[MultiPoly, MultiPoly]:
    """One member's two sides in the identity of :func:`lemma1_check`:
    t^exc (1+s)^m and (s+t)^(exc-cval) (1+st)^(m-cval-exc) t^cval (1+s)^(2 cval).
    Only O(m^2) profiles occur, so each is built once per process."""
    s, t, one = MultiPoly.s(), MultiPoly.t(), MultiPoly.one()
    lhs = MultiPoly.monomial(0, exc) * (one + s) ** m
    rhs = (
        (s + t) ** (exc - cval)
        * (one + s * t) ** (m - cval - exc)
        * MultiPoly.monomial(0, cval)
        * (one + s) ** (2 * cval)
    )
    return lhs, rhs


@lru_cache(maxsize=None)
def _cleared_sides(
    m: int, counts: frozenset[tuple[tuple[int, int], int]]
) -> tuple[MultiPoly, MultiPoly]:
    """The two sides of :func:`lemma1_check`'s identity over members
    counted by (cval, exc): each profile's memoized terms, scaled and
    added into one term dict per side.

    The sides are a function of m and the counts alone, and few distinct
    pairs occur (17 over every orbit of S_1..S_8), so each is built once
    per process. The key is the measured counts themselves, so an orbit
    whose members measure differently gets its own sides."""
    lhs, rhs = {}, {}
    for (cval, exc), mult in counts:
        for acc, term in zip((lhs, rhs), _profile_terms(m, cval, exc)):
            for key, value in term._terms.items():
                acc[key] = acc.get(key, 0) + value * mult
    return MultiPoly(lhs), MultiPoly(rhs)


def _cleared_identity(
    claim: str, instance: dict, counts: dict[tuple[int, int], int], m: int
) -> VerificationReport:
    """The identity of :func:`lemma1_check` over members counted by
    (cval, exc), as a report. Lemma 1 and Theorem 4 share the memoized
    sides of :func:`_cleared_sides`; both are immutable, so sharing them
    between reports is exact."""
    lhs, rhs = _cleared_sides(m, frozenset(counts.items()))
    return VerificationReport(claim, instance, lhs=lhs, rhs=rhs)


def lemma1_check(sigma: Permutation) -> VerificationReport:
    """Orbit-level identity behind the gamma results, in cleared form
    (no radicals, exact equality), with m = n - k:

    (sum over the orbit of t^exc) * (1+s)^m
      = sum over the orbit of
        (s+t)^(exc-cval) (1+st)^(m-cval-exc) t^cval (1+s)^(2 cval),

    checked with the orbit's members grouped by (cval, exc). Every
    orbit is walked and every distinct member measured on the walk's own
    links (:func:`~cyclestat.hopping.orbit_counts`); only the two sides
    built from the resulting counts are memoized, per (m, counts).
    """
    fix, counts = orbit_counts(sigma)
    m = sigma.n - fix
    return _cleared_identity("lemma1", {"sigma": list(sigma.word)}, counts, m)


def theorem4_check(spec: ClassSpec) -> VerificationReport:
    """The identity of :func:`lemma1_check` summed over a hop-invariant
    family, from its enumerated (cval, exc) counts; the left side is
    dist_exc * (1+s)^(n-k)."""
    counts = joint_counts(spec, route="enumerate")
    m = spec.n - spec.fixed_point_count
    return _cleared_identity("theorem4", spec.instance(), counts, m)


def theorem5_check(spec: ClassSpec) -> VerificationReport:
    """Specialization s = 1 of the previous identity, cleared form:

    dist_exc * 2^(n-k) = sum_i c_i 4^i t^i (1+t)^(n-k-2i)
    where c_i is the number of members with i cyclic valleys. The right
    side is 2^(n-k) times the reconstruction from
    ``theorem2_gamma(spec).by_orbit_scaling``, since
    c_i 4^i = 2^(n-k) c_i / 2^(n-k-2i).
    """
    report = _reconstruction_check(
        "theorem5", spec, theorem2_gamma(spec).by_orbit_scaling
    )
    scale = 2 ** (spec.n - spec.fixed_point_count)
    return replace(report, lhs=report.lhs * scale, rhs=report.rhs * scale)


@dataclass(frozen=True)
class Theorem2Gamma:
    """Gamma data for the excedance distribution over a hop-invariant family.

    Two readings of the same numbers, counted in one pass over the
    enumerated (cval, exc) counts; Theorem 2 holds when both reconstruct
    dist_exc about (n-k)/2, which :func:`theorem2_check` decides.
    Theorem 5 and Corollaries 3 and 4 reconstruct from
    ``by_orbit_scaling`` too:

    * ``by_no_double_ascent``: gamma_i as the number of members with i
      cyclic valleys and no cyclic double ascent (one per orbit);
    * ``by_orbit_scaling``: gamma_i as the members with i cyclic valleys
      divided by the orbit size 2^(n-k-2i).
    """

    by_no_double_ascent: tuple[int, ...]
    by_orbit_scaling: tuple[Fraction, ...]


def theorem2_gamma(spec: ClassSpec) -> Theorem2Gamma:
    """Count the two readings of the gammas of dist_exc(spec) about (n-k)/2.

    >>> g = theorem2_gamma(ClassSpec.with_fixed_points(3, 0))
    >>> g.by_no_double_ascent, g.by_orbit_scaling
    ((0, 1), (Fraction(0, 1), Fraction(1, 1)))
    """
    n, k = spec.n, spec.fixed_point_count
    counts = joint_counts(spec, route="enumerate")
    width = (n - k) // 2 + 1
    no_dasc = [0] * width
    scaled = [Fraction(0)] * width
    for (cval, exc), mult in counts.items():
        if exc == cval:  # no cyclic double ascents: cdasc = exc - cval
            no_dasc[cval] += mult
        scaled[cval] += Fraction(mult, 2 ** (n - k - 2 * cval))
    return Theorem2Gamma(
        by_no_double_ascent=tuple(no_dasc),
        by_orbit_scaling=tuple(scaled),
    )


def _reconstruction(spec: ClassSpec, gammas) -> MultiPoly:
    """sum_i gammas[i] t^i (1+t)^(n-k-2i), the polynomial the gammas of
    :func:`theorem2_gamma` claim for dist_exc(spec)."""
    return GammaExpansion(spec.n - spec.fixed_point_count, gammas).reconstruct()


def _reconstruction_check(claim: str, spec: ClassSpec, gammas) -> VerificationReport:
    """The one comparison of the enumerated dist_exc(spec) with the
    reconstruction from ``gammas``, shared by Theorems 2 and 5 and
    Corollaries 3 and 4."""
    return VerificationReport(
        claim,
        spec.instance(),
        lhs=dist_exc(spec, route="enumerate"),
        rhs=_reconstruction(spec, gammas),
    )


def theorem2_check(spec: ClassSpec) -> VerificationReport:
    """Report form of :func:`theorem2_gamma`: dist_exc against the
    reconstruction from the no-double-ascent counts, with the two gamma
    witness readings required to agree.

    The basis t^i (1+t)^(m-2i) is linearly independent, so the two count
    vectors agree exactly when their reconstructions do; when they
    differ, the report compares those reconstructions directly so the
    witness points at the discrepancy.
    """
    data = theorem2_gamma(spec)
    if data.by_no_double_ascent != data.by_orbit_scaling:
        return VerificationReport(
            "theorem2",
            spec.instance(),
            lhs=_reconstruction(spec, data.by_no_double_ascent),
            rhs=_reconstruction(spec, data.by_orbit_scaling),
        )
    return _reconstruction_check("theorem2", spec, data.by_no_double_ascent)


def corollary2_check(ct: CycleType) -> VerificationReport:
    """Gamma-expand every s-coefficient of the joint distribution.

    The coefficient of s^i is the excedance distribution over the class
    members with i cyclic valleys, so each expands about (n-k)/2 with
    nonnegative integer gamma values. The report compares with zero the
    first asymmetric coefficient's residual, put back at s^i, or else each
    gamma_j of s^i that is negative or fractional, at s^i t^j.
    """
    spec = ClassSpec.of_cycle_type(ct)
    joint = dist_joint(spec, route="enumerate")
    m = ct.n - ct.fixed_point_count
    bad = {}
    for i in range(joint.s_degree() + 1):
        try:
            gammas = gamma_expand(joint.coefficient_of_s(i), m).gammas
        except GammaExpansionError as err:
            # The residual is in t alone; put it back at s^i.
            residual = err.residual * MultiPoly.monomial(i, 0)
            return VerificationReport("cor2", spec.instance(), residual, MultiPoly())
        for j, g in enumerate(gammas):
            if g < 0 or g.denominator != 1:
                bad[(i, j)] = g
    return VerificationReport("cor2", spec.instance(), MultiPoly(bad), MultiPoly())


def corollary3_check(n: int, k: int) -> VerificationReport:
    """Excedance distribution over the k-fixed-point stratum against
    sum_i count(n,k,i)/2^(n-k-2i) * t^i (1+t)^(n-k-2i)."""
    spec = ClassSpec.with_fixed_points(n, k)
    return _reconstruction_check("cor3", spec, theorem2_gamma(spec).by_orbit_scaling)


def corollary4_check(n: int, k: int, i: int) -> VerificationReport:
    """Excedance distribution over a single (fixed points, valleys) cell
    against count/2^(n-k-2i) * t^i (1+t)^(n-k-2i)."""
    spec = ClassSpec.with_fixed_points_and_valleys(n, k, i)
    return _reconstruction_check("cor4", spec, theorem2_gamma(spec).by_orbit_scaling)


def _egf_denominator_coefficient(j: int) -> MultiPoly:
    """j! times the coefficient of x^j in the radical-free denominator

    sum_m x^(2m) (1-t)^m / (2m)!  -  sum_m x^(2m+1) (1-t)^m / (2m+1)!,

    that is (1-t)^(j/2) for even j and -(1-t)^((j-1)/2) for odd j.
    """
    power = (MultiPoly.one() - MultiPoly.t()) ** (j // 2)
    return power if j % 2 == 0 else -power


def egf_snki(n_max: int) -> dict[tuple[int, int, int], int]:
    """Counts of permutations by (length, fixed points, cyclic valleys),
    extracted from the exponential generating function

        1 + sum |...| u^k t^i x^n / n!
            = sqrt(1-t) e^((u-1)x)
              / (sqrt(1-t) cosh(x sqrt(1-t)) - sinh(x sqrt(1-t))).

    The sqrt(1-t) factors cancel: dividing the denominator by sqrt(1-t)
    term by term leaves only integer powers of (1-t), so the whole
    computation is a truncated series in x whose coefficients are exact
    polynomials in u and t (u rides in the s-slot of MultiPoly). Each
    series is kept with its x^j coefficient scaled by j!, so products
    become binomial convolutions and every polynomial stays integral.

    >>> table = egf_snki(3)
    >>> table[(3, 0, 1)], table[(3, 1, 1)], table[(3, 3, 0)]
    (2, 3, 1)
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    size = n_max + 1
    u_minus_1 = MultiPoly.s() - MultiPoly.one()
    numerator = [u_minus_1**j for j in range(size)]
    denominator = [_egf_denominator_coefficient(j) for j in range(size)]

    # Invert the denominator as a power series in x over the polynomial
    # ring: D_0 = 1, so j! [x^j] 1/D = -sum_m C(j, m) D_m J_(j-m).
    inverse = [MultiPoly.one()]
    for j in range(1, size):
        acc = MultiPoly.zero()
        for m in range(1, j + 1):
            acc = acc + denominator[m] * inverse[j - m] * comb(j, m)
        inverse.append(-acc)

    table: dict[tuple[int, int, int], int] = {}
    for n in range(1, size):
        poly = MultiPoly.zero()
        for m in range(n + 1):
            poly = poly + numerator[m] * inverse[n - m] * comb(n, m)
        _require_integral(poly, f"egf_snki x^{n}")
        for (k, i), value in poly._terms.items():
            if value < 0:
                raise ArithmeticError(f"negative count at n={n}, k={k}, i={i}")
            table[(n, k, i)] = value
    return table


CLAIMS = (
    "brenti",
    "theorem1",
    "lemma1",
    "theorem2",
    "theorem4",
    "theorem5",
    "theorem6",
    "cor2",
    "cor3",
    "cor4",
    "egf",
)


def claim_reports(claim: str, n_max: int, lambdas: list[CycleType]):
    """Yield one VerificationReport per checked instance of the claim: per
    class of ``lambdas`` or, for ``lemma1``, per orbit of each class of
    ``lambdas`` but the empty one; per (n, k) stratum or (n, k, i) cell,
    or per n, with 1 <= n <= n_max. Raises ValueError for an unknown claim.
    """
    specs = [ClassSpec.of_cycle_type(ct) for ct in lambdas]
    strata = [(n, k) for n in range(1, n_max + 1) for k in range(n + 1)]
    if claim in ("brenti", "theorem1", "theorem6"):
        closed_form, enumerated = {
            "brenti": (brenti, dist_exc),
            "theorem1": (theorem1_joint, dist_joint),
            "theorem6": (theorem6_cval, dist_cval),
        }[claim]
        for spec in specs:
            lhs = closed_form(spec.cycle_type)
            rhs = enumerated(spec, route="enumerate")
            yield VerificationReport(claim, spec.instance(), lhs=lhs, rhs=rhs)
    elif claim == "cor2":
        yield from map(corollary2_check, lambdas)
    elif claim == "lemma1":
        for spec in specs:
            if spec.n:
                yield from map(lemma1_check, orbit_representatives(spec))
    elif claim in ("theorem2", "theorem4", "theorem5"):
        check = {
            "theorem2": theorem2_check,
            "theorem4": theorem4_check,
            "theorem5": theorem5_check,
        }[claim]
        yield from map(check, specs)
        for n, k in strata:
            yield check(ClassSpec.with_fixed_points(n, k))
    elif claim == "cor3":
        for n, k in strata:
            yield corollary3_check(n, k)
    elif claim == "cor4":
        for n, k in strata:
            for i in range(0, (n - k) // 2 + 1):
                yield corollary4_check(n, k, i)
    elif claim == "egf":
        if n_max < 1:
            return
        table = egf_snki(n_max)
        for n in range(1, n_max + 1):
            cells = [(k, i) for k in range(n + 1) for i in range((n - k) // 2 + 1)]
            lhs = {(k, i): table.get((n, k, i), 0) for k, i in cells}
            rhs = {(k, i): count_snki(n, k, i, route="enumerate") for k, i in cells}
            yield VerificationReport("egf", {"n": n}, MultiPoly(lhs), MultiPoly(rhs))
    else:
        raise ValueError(f"unknown claim {claim!r}")
