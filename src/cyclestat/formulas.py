"""Closed forms for the distribution polynomials, with verification.

Each operation here has a brute-force counterpart in
:mod:`cyclestat.enumeration`; the point of this module is to compute the
same polynomials along an entirely different route and to package the
comparison as machine-checkable reports. Every check compares against
``route="enumerate"``, never against the factorized default route. The
enumerate route splits [n] into cycles member by member and reads each
cycle's (cval, exc) from a table of that cycle size's orders, adding
them up per member; it classifies no member word. So it shares the
factorized route's per-cycle additivity, but not its multinomial count
of the splits or its insertion recursion for the per-cycle counts.

The routes implemented:

* ``brenti``: the excedance distribution over a conjugacy class as a
  product of Eulerian polynomials scaled by the class size.
* ``theorem1_joint``: the joint (cval, exc) distribution over a
  conjugacy class, obtained from the same product by substituting two
  algebraic functions u(s,t), v(s,t) that involve sqrt((1+t)^2 - 4st).
* ``theorem6_cval``: the cyclic-valley distribution, via the analogous
  univariate substitution w(t) built from sqrt(1-t).

These three share one Brenti product,
(n!/z_lambda) * core^(n - m_1) * prod [A_(i-1)(x)/(i-1)!]^(m_i), and
differ only in the pair (core, x): (1, t) for ``brenti``,
((1+u)/(1+uv), v) for Theorem 1 and (1 + sqrt(1-t), w) for Theorem 6.
Substitution is a ring homomorphism, so the Eulerian part is P(x) for
one polynomial P(X) in ZZ[X] of degree at most n: each class multiplies
its Eulerian polynomials as plain lists of ints, with the scalar folded
in, and ``brenti`` reads P at X = t with no further product. The
radicals of Theorems 1 and 6 are never evaluated. Both pairs are
rational in the Catalan series C(z) = 1 + z C(z)^2: with
z = st/(1+t)^2, v = C(z) - 1 and (1+u)/(1+uv) = (1+t)/C(z), and at
t = 4z, w = C(z) - 1 and 1 + sqrt(1-t) = 2/C(z). So with K = n - m_1
both products are read off the same integers Q_a, the coefficients of
C^(-K) P(C - 1), and Lagrange inversion gives each coefficient of a
power of C as one binomial: a class costs one integer sum per Q_a.
Every Q_a above K/2 must vanish; a nonzero one raises
``TruncationResidueError``, a loud check against a fault in the
product. P and Q are built once per class per process, residue check
included, and kept as tuples: ``brenti`` reads P, Theorems 1 and 6 read
Q, and ``theorem2_check`` compares Q, summed over a spec's classes,
with the enumerated gammas. The two caches hold 0.4 MiB for all 915
classes with n <= 16 and 6.3 MiB for all 7,338 classes with n <= 24
(tracemalloc).
* ``lemma1_check`` / ``theorem4_check`` / ``theorem5_check``: identities
  relating the excedance distribution to the joint (or cval)
  distribution over any hop-invariant family, verified in cleared
  polynomial form (no radicals, exact equality).
* ``theorem2_check``, which decides Theorem 2, and the corollary
  checks: gamma-positivity of the excedance distribution, with the two
  readings of its gammas that ``theorem2_gamma`` counts (orbit
  representatives without cyclic double ascents, orbit counts over 2^j)
  and a third, the Q_a of the closed form, that ``theorem2_check``
  compares with them.
  ``theorem2_gamma`` is the one count of those gammas: Theorem 5 and
  Corollaries 3 and 4 reconstruct their right sides from its
  ``by_orbit_scaling`` reading, and all four compare the enumerated
  dist_exc with a reconstruction in one shared check.
* ``egf_snki``: the table of counts by (length, fixed points, cyclic
  valleys) extracted from an exponential generating function, computed
  radical-free on lists of ints in t: the fixed points split off as
  e^(ux), so each count is a binomial times a fixed-point-free count,
  and those counts come from one recurrence, D d = e^(-x) for the
  EGF's denominator D.

Claim identifiers (``CLAIMS``: "brenti", "theorem1", "cor3", ...) are the
stable vocabulary of reports and of the command-line ``verify``
subcommand. One table declares each claim's instances and check, one
row per claim, and ``CLAIMS`` is read off it; ``claim_reports`` looks up
a claim's row and yields its reports over its range.
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
    TruncationResidueError,
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


def _times(a: list[int], b: list[int]) -> list[int]:
    """The product in ZZ[X] of two polynomials given as lists of int
    coefficients, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            for i, x in enumerate(a):
                out[i + j] += c * x
    return out


@lru_cache(maxsize=None)
def _eulerian_product(ct: CycleType) -> tuple[int, ...]:
    """The coefficients, lowest degree first, of Brenti's product as a
    polynomial in X: (n!/z_lambda) * prod over part sizes i of
    [A_(i-1)(X)/(i-1)!]^(m_i), in ZZ[X], of degree at most n.

    The factors A_d(X) are multiplied unscaled, on plain lists of ints,
    and the scalar is folded into the coefficients once, as the integer
    multinomial n!/prod_i(i!^(m_i) m_i!), which is
    (n!/z_lambda)/prod_i (i-1)!^(m_i). Built once per class per process
    and kept as a tuple, so the callers that share it cannot change it."""
    product = [1]
    denominator = 1
    for size, mult in sorted(ct.multiplicities.items()):
        denominator *= factorial(size) ** mult * factorial(mult)
        row = [0] * size
        for (_, j), c in eulerian(size - 1)._terms.items():
            row[j] = c
        for _ in range(mult):
            product = _times(product, row)
    scalar = factorial(ct.n) // denominator
    return tuple(c * scalar for c in product)


def brenti(ct: CycleType) -> MultiPoly:
    """Excedance distribution over the class of cycle type lambda:
    (n!/z_lambda) * prod over part sizes i of [A_(i-1)(t)/(i-1)!]^(m_i),
    read off :func:`_eulerian_product` at X = t.

    >>> str(brenti(CycleType((3,))))
    't + t^2'
    """
    return MultiPoly({(0, j): c for j, c in enumerate(_eulerian_product(ct))})


@lru_cache(maxsize=None)
def _catalan_power(m: int, r: int) -> int:
    """[z^m] C(z)^r for any integer r, where C = 1 + z C^2 is the Catalan
    series: 1 for m = 0, else (r/m) binom(2m + r - 1, m - 1) by Lagrange
    inversion. An upper index N < 0 reads binom(N, k) as
    (-1)^k binom(k - N - 1, k); for 0 <= N < k it is 0, which makes the
    coefficient 0 on the band 1 - 2m <= r <= -m - 1. The division by m is
    exact, and an inexact one raises. A class of n letters reads only
    m <= n + 2 and |r| <= n, so each pair is computed once per process."""
    if m == 0:
        return 1
    top, k = 2 * m + r - 1, m - 1
    binomial = comb(top, k) if top >= 0 else (-1) ** k * comb(k - top - 1, k)
    value, rest = divmod(r * binomial, m)
    if rest:
        raise ArithmeticError(f"[z^{m}] C^{r}: {r}*{binomial} is not divisible by {m}")
    return value


@lru_cache(maxsize=None)
def _lagrange_sum(ct: CycleType) -> tuple[int, tuple[int, ...]]:
    """(K, (Q_0, ..., Q_(K//2))) with K = n - m_1, where
    Q_a = sum_(J <= a) P_J c(a - J, 2J - K), P is :func:`_eulerian_product`
    and c is :func:`_catalan_power`: the coefficients of
    C(z)^(-K) P(C(z) - 1) = sum_a Q_a z^a, the Brenti product of Theorems
    1 and 6 with the radicals written through the Catalan series C.

    That series is a polynomial of degree at most K/2, because the joint
    distribution has at most K/2 cyclic valleys. Q_a is computed for
    a <= deg P + 2, and a nonzero Q_a above K/2 raises
    ``TruncationResidueError``: the sign of a fault in the product or in
    the coefficients. Computed once per class per process, residue check
    included, and shared by Theorems 1, 2 and 6."""
    p = _eulerian_product(ct)
    k = ct.n - ct.fixed_point_count
    q = [
        sum(c * _catalan_power(a - j, 2 * j - k) for j, c in enumerate(p[: a + 1]) if c)
        for a in range(len(p) + 2)
    ]
    for a in range(k // 2 + 1, len(q)):
        if q[a]:
            raise TruncationResidueError(
                f"nonzero coefficient {q[a]} of z^{a} above degree {k // 2} "
                f"for the class {ct}: not a polynomial of the asserted degree"
            )
    return k, tuple(q[: k // 2 + 1])


def theorem1_joint(ct: CycleType) -> MultiPoly:
    """Joint (cval, exc) distribution over a conjugacy class, closed form.

    (n!/z_lambda) * ((1+u)/(1+uv))^(n - m_1) * prod [A_(i-1)(v)/(i-1)!]^(m_i),
    where u(s,t), v(s,t) involve R = sqrt((1+t)^2 - 4st). With
    z = st/(1+t)^2 and C the Catalan series, R = (1+t)(1 - 2zC(z)), so
    v = C(z) - 1 and (1+u)/(1+uv) = (1+t)/C(z), and the product is
    sum_a Q_a s^a t^a (1+t)^(K - 2a) with the integers Q_a of
    :func:`_lagrange_sum`. Must equal ``dist_joint`` of the same class.

    >>> str(theorem1_joint(CycleType((3,))))
    's*t + s*t^2'
    """
    k, q = _lagrange_sum(ct)
    return MultiPoly(
        {
            (a, a + i): c * comb(k - 2 * a, i)
            for a, c in enumerate(q)
            for i in range(k - 2 * a + 1)
        }
    )


def theorem6_cval(ct: CycleType) -> MultiPoly:
    """Cyclic-valley distribution over a conjugacy class, closed form.

    (n!/z_lambda) * (1 + sqrt(1-t))^(n - m_1) * prod [A_(i-1)(w)/(i-1)!]^(m_i)
    with w = 2 t^-1 (1 - sqrt(1-t)) - 1. At t = 4x, w = C(x) - 1 and
    1 + sqrt(1-4x) = 2/C(x) for the Catalan series C, so the product is
    sum_a Q_a 2^(K - 2a) t^a with the same integers Q_a as
    :func:`theorem1_joint`. Must equal ``dist_cval`` of the same class.

    >>> str(theorem6_cval(CycleType((3,))))
    '2*t'
    """
    k, q = _lagrange_sum(ct)
    return MultiPoly({(0, a): c * 2 ** (k - 2 * a) for a, c in enumerate(q)})


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


def _closed_form_gammas(spec: ClassSpec) -> tuple[int, ...]:
    """The gammas of dist_exc(spec) read off the closed form: the Q_a of
    :func:`_lagrange_sum` summed over the spec's classes, which share
    K = n - k. At s = 1 Theorem 1's sum_a Q_a s^a t^a (1+t)^(K-2a) is the
    gamma expansion of the class's excedance distribution. A cell spec
    keeps only its own a = i."""
    gammas = [0] * ((spec.n - spec.fixed_point_count) // 2 + 1)
    for ct in spec.cycle_types():
        for a, q in enumerate(_lagrange_sum(ct)[1]):
            if spec.cval is None or spec.cval == a:
                gammas[a] += q
    return tuple(gammas)


def theorem2_check(spec: ClassSpec) -> VerificationReport:
    """Report form of :func:`theorem2_gamma`: dist_exc against the
    reconstruction from the no-double-ascent counts, with the two gamma
    witness readings required to agree, and the no-double-ascent counts
    required to equal the closed form's gammas, :func:`_closed_form_gammas`.

    The basis t^i (1+t)^(m-2i) is linearly independent, so two count
    vectors agree exactly when their reconstructions do; at the first
    reading that differs from the no-double-ascent counts, the report
    compares the two reconstructions directly so the witness points at
    the discrepancy.
    """
    data = theorem2_gamma(spec)
    for other in (data.by_orbit_scaling, _closed_form_gammas(spec)):
        if data.by_no_double_ascent != other:
            lhs = _reconstruction(spec, data.by_no_double_ascent)
            rhs = _reconstruction(spec, other)
            return VerificationReport("theorem2", spec.instance(), lhs=lhs, rhs=rhs)
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


def egf_snki(n_max: int) -> dict[tuple[int, int, int], int]:
    """Counts of permutations by (length, fixed points, cyclic valleys),
    extracted from the exponential generating function

        1 + sum |...| u^k t^i x^n / n!
            = sqrt(1-t) e^((u-1)x)
              / (sqrt(1-t) cosh(x sqrt(1-t)) - sinh(x sqrt(1-t))).

    The sqrt(1-t) factors cancel: dividing the denominator by sqrt(1-t)
    term by term leaves only integer powers of (1-t), so j! times its
    x^j coefficient is D_j = (1-t)^(j/2) for even j and
    -(1-t)^((j-1)/2) for odd j. The only u is in
    e^((u-1)x) = e^(ux) e^(-x), so the count is C(n, k) [t^i] d_(n-k),
    where d = e^(-x)/D lists the fixed-point-free counts. Every series
    is kept with its x^j coefficient scaled by j!, so products are
    binomial convolutions and everything is a list of ints in t: D d =
    e^(-x) and D_0 = 1 give d in one pass,
    d_j = (-1)^j - sum_(m=1..j) C(j, m) D_m d_(j-m).

    >>> table = egf_snki(3)
    >>> table[(3, 0, 1)], table[(3, 1, 1)], table[(3, 3, 0)]
    (2, 3, 1)
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    denominator = [
        [(-1) ** (i + j % 2) * comb(j // 2, i) for i in range(j // 2 + 1)]
        for j in range(n_max + 1)
    ]
    rows = [[1]]
    for j in range(1, n_max + 1):
        row = [(-1) ** j] + [0] * (j // 2)
        for m in range(1, j + 1):
            for i, c in enumerate(_times(denominator[m], rows[j - m])):
                row[i] -= comb(j, m) * c
        if min(row) < 0:
            raise ArithmeticError(f"negative fixed-point-free count at n={j}: {row}")
        rows.append(row)
    return {
        (n, k, i): comb(n, k) * value
        for n in range(1, n_max + 1)
        for k in range(n + 1)
        for i, value in enumerate(rows[n - k])
        if value
    }


def _classes(n_max: int, lambdas: list[CycleType]):
    """The class of each cycle type in ``lambdas``, as a spec."""
    return map(ClassSpec.of_cycle_type, lambdas)


def _orbits(n_max: int, lambdas: list[CycleType]):
    """One representative per orbit of each class but the empty one."""
    for spec in _classes(n_max, lambdas):
        if spec.n:
            yield from orbit_representatives(spec)


def _lengths(n_max: int, lambdas: list[CycleType]):
    """n = 1, ..., n_max."""
    return range(1, n_max + 1)


def _strata(n_max: int, lambdas: list[CycleType]):
    """The (n, k) strata with 1 <= n <= n_max."""
    return [(n, k) for n in _lengths(n_max, lambdas) for k in range(n + 1)]


def _classes_then_strata(n_max: int, lambdas: list[CycleType]):
    """The classes, then the strata, as specs."""
    yield from _classes(n_max, lambdas)
    for n, k in _strata(n_max, lambdas):
        yield ClassSpec.with_fixed_points(n, k)


def _cells(n_max: int, lambdas: list[CycleType]):
    """The (n, k, i) cells with 1 <= n <= n_max."""
    return [(n, k, i) for n, k in _strata(n_max, lambdas) for i in range((n - k) // 2 + 1)]


def _closed_form_row(claim: str, closed_form, enumerated):
    """The row of a claim that ``closed_form`` of each class equals the
    distribution ``enumerated`` over its members."""

    def check(spec: ClassSpec) -> VerificationReport:
        lhs = closed_form(spec.cycle_type)
        rhs = enumerated(spec, route="enumerate")
        return VerificationReport(claim, spec.instance(), lhs=lhs, rhs=rhs)

    return _classes, check


def _egf_check(n: int) -> VerificationReport:
    """Row n of :func:`egf_snki` against the enumerated counts, each
    (k, i) cell of S_n at the monomial s^k t^i."""
    table = egf_snki(n)
    cells = [cell for cell in _cells(n, []) if cell[0] == n]
    lhs = {cell[1:]: table.get(cell, 0) for cell in cells}
    rhs = {cell[1:]: count_snki(*cell, route="enumerate") for cell in cells}
    return VerificationReport("egf", {"n": n}, MultiPoly(lhs), MultiPoly(rhs))


def _claim_table() -> dict:
    """Each claim, in report order, with its row: the function of
    (n_max, lambdas) that lists its instances, and the check that turns
    one instance into a report. Built per call, so each row reads this
    module's names as they are when the claim runs."""
    return {
        "brenti": _closed_form_row("brenti", brenti, dist_exc),
        "theorem1": _closed_form_row("theorem1", theorem1_joint, dist_joint),
        "lemma1": (_orbits, lemma1_check),
        "theorem2": (_classes_then_strata, theorem2_check),
        "theorem4": (_classes_then_strata, theorem4_check),
        "theorem5": (_classes_then_strata, theorem5_check),
        "theorem6": _closed_form_row("theorem6", theorem6_cval, dist_cval),
        "cor2": (lambda n_max, lambdas: lambdas, corollary2_check),
        "cor3": (_strata, lambda stratum: corollary3_check(*stratum)),
        "cor4": (_cells, lambda cell: corollary4_check(*cell)),
        "egf": (_lengths, _egf_check),
    }


CLAIMS = tuple(_claim_table())


def claim_reports(claim: str, n_max: int, lambdas: list[CycleType]):
    """An iterator of one VerificationReport per checked instance of the
    claim, each made when it is reached, as the claim's row of one table
    declares them: per class of ``lambdas`` or, for ``lemma1``, per orbit
    of each class of ``lambdas`` but the empty one; per (n, k) stratum or
    (n, k, i) cell, or per n, with 1 <= n <= n_max. Raises ValueError for
    an unknown claim.
    """
    table = _claim_table()
    if claim not in table:
        raise ValueError(f"unknown claim {claim!r}")
    instances, check = table[claim]
    return map(check, instances(n_max, lambdas))
