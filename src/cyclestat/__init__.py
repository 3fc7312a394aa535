"""cyclestat: exact cyclic permutation statistics over conjugacy classes.

A pure-Python library for the joint behaviour of excedances and cyclic
valleys on the symmetric group: statistics and canonical cycle forms,
the valley-hopping group actions and their orbits, exact distribution
polynomials over conjugacy classes (by a product over cycles, or by
brute-force enumeration), and closed-form counterparts
(Eulerian-polynomial products and radical substitutions evaluated as
truncated power series) verified against the enumeration.

All arithmetic is exact (arbitrary-precision rationals); there is no
floating point anywhere.
"""
from .algebra import (
    GammaExpansion,
    GammaExpansionError,
    MultiPoly,
    TruncSeries,
    TruncationResidueError,
    eulerian,
    gamma_expand,
    poly_at_series,
)
from .enumeration import (
    DEFAULT_CLASS_CAP,
    ClassSpec,
    ClassTooLargeError,
    class_cap,
    class_size,
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    iter_class,
    joint_counts,
    partitions_of,
    z_lambda,
)
from .formulas import (
    Theorem2Gamma,
    VerificationReport,
    brenti,
    corollary2_check,
    corollary3_check,
    corollary4_check,
    egf_snki,
    lemma1_check,
    theorem1_joint,
    theorem2_check,
    theorem2_gamma,
    theorem4_check,
    theorem5_check,
    theorem6_cval,
)
from .hopping import (
    OrbitReport,
    XFactorization,
    foata,
    foata_inverse,
    orbit,
    orbit_exc_polynomial,
    phi,
    psi,
    x_factorize,
)
from .permutations import (
    CycleForm,
    CycleType,
    Permutation,
    StatCounts,
    StatSets,
    cycle_type,
    des,
    from_cycle_form,
    from_one_line,
    identity,
    left_to_right_maxima,
    parse_permutation,
    stat_counts,
    stat_sets,
    to_cycle_form,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # permutations
    "Permutation",
    "CycleForm",
    "CycleType",
    "StatSets",
    "StatCounts",
    "from_one_line",
    "identity",
    "to_cycle_form",
    "from_cycle_form",
    "cycle_type",
    "des",
    "stat_sets",
    "stat_counts",
    "left_to_right_maxima",
    "parse_permutation",
    # hopping
    "XFactorization",
    "x_factorize",
    "foata",
    "foata_inverse",
    "phi",
    "psi",
    "OrbitReport",
    "orbit",
    "orbit_exc_polynomial",
    # enumeration
    "DEFAULT_CLASS_CAP",
    "ClassTooLargeError",
    "ClassSpec",
    "partitions_of",
    "z_lambda",
    "class_size",
    "class_cap",
    "iter_class",
    "joint_counts",
    "dist_exc",
    "dist_cval",
    "dist_joint",
    "count_snki",
    # algebra
    "MultiPoly",
    "TruncSeries",
    "GammaExpansion",
    "GammaExpansionError",
    "TruncationResidueError",
    "eulerian",
    "gamma_expand",
    "poly_at_series",
    # formulas
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
]
