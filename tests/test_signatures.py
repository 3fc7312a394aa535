"""The call surface of the functions that once took a member cap, a
truncation order or word boundaries: their parameter names are pinned, so
a removed option cannot come back unnoticed."""
import inspect

from cyclestat.enumeration import (
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    iter_class,
    joint_counts,
)
from cyclestat.formulas import theorem1_joint, theorem6_cval
from cyclestat.hopping import XFactorization, x_factorize

PARAMETERS = {
    iter_class: ["spec"],
    joint_counts: ["spec", "route"],
    dist_joint: ["spec", "route"],
    dist_exc: ["spec", "route"],
    dist_cval: ["spec", "route"],
    count_snki: ["n", "k", "i", "route"],
    theorem1_joint: ["ct"],
    theorem6_cval: ["ct"],
    x_factorize: ["word", "x"],
    XFactorization: ["w1", "w2", "x", "w4", "w5"],
}


def test_call_surface():
    found = {f.__name__: list(inspect.signature(f).parameters) for f in PARAMETERS}
    assert found == {f.__name__: names for f, names in PARAMETERS.items()}
