"""The public surface. The call surface of the functions that once took a
member cap, a truncation order or word boundaries, and of the claim
catalogue behind ``verify``, and of the two orbit walks: their parameter
names are pinned, so a removed option cannot come back unnoticed, nor
can a new one slip in. So are the fields of
``Theorem2Gamma``, which once carried a third, unread gamma reading. The
package exports exactly the names its modules list in ``__all__``;
``formulas`` and ``cli`` import no private name of another module, and
``hopping`` none of ``enumeration``'s. The retired names stay retired:
the Foata word, the x-factorization and the truncated series live on
only as test oracles."""
import ast
import dataclasses
import inspect

import pytest

import cyclestat
from cyclestat import algebra, cli, enumeration, formulas, hopping, permutations
from cyclestat.enumeration import (
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    iter_class,
    joint_counts,
    orbit_representatives,
)
from cyclestat.formulas import (
    Theorem2Gamma,
    claim_reports,
    corollary2_check,
    theorem1_joint,
    theorem6_cval,
)
from cyclestat.hopping import orbit, orbit_counts

PARAMETERS = {
    iter_class: ["spec"],
    orbit_representatives: ["spec"],
    joint_counts: ["spec", "route"],
    dist_joint: ["spec", "route"],
    dist_exc: ["spec", "route"],
    dist_cval: ["spec", "route"],
    count_snki: ["n", "k", "i", "route"],
    theorem1_joint: ["ct"],
    theorem6_cval: ["ct"],
    claim_reports: ["claim", "n_max", "lambdas"],
    corollary2_check: ["ct"],
    orbit: ["p", "collect_members"],
    orbit_counts: ["p"],
}


def test_call_surface():
    found = {f.__name__: list(inspect.signature(f).parameters) for f in PARAMETERS}
    assert found == {f.__name__: names for f, names in PARAMETERS.items()}


def test_theorem2_gamma_fields():
    fields = [field.name for field in dataclasses.fields(Theorem2Gamma)]
    assert fields == ["by_no_double_ascent", "by_orbit_scaling"]


MODULES = (permutations, hopping, enumeration, algebra, formulas)
EXPORTS = [(module, name) for module in MODULES for name in module.__all__]


def test_package_exports_the_module_lists():
    assert len(cyclestat.__all__) == len(set(cyclestat.__all__))
    assert set(cyclestat.__all__) == {"__version__"} | {name for _, name in EXPORTS}


@pytest.mark.parametrize(
    "module, name", EXPORTS, ids=[f"{m.__name__}.{name}" for m, name in EXPORTS]
)
def test_exported_name_is_defined_in_its_module(module, name):
    assert not name.startswith("_")
    assert name in vars(module)
    value = vars(module)[name]
    if inspect.isfunction(value) or inspect.isclass(value):
        assert value.__module__ == module.__name__
    assert getattr(cyclestat, name) is value


# Names the library no longer defines, by the module or class that held
# them: the Foata word, the w1 w2 x w4 w5 factorization and the truncated
# series are test oracles now, the accessors had callers only in the
# tests, and Brenti's product is integral by construction.
RETIRED = {
    hopping: ["XFactorization", "x_factorize", "foata", "foata_inverse"],
    permutations: ["left_to_right_maxima"],
    algebra: ["TruncSeries"],
    algebra.MultiPoly: ["total_degree", "coefficient_sum", "has_integer_coefficients"],
    algebra.GammaExpansion: ["positive", "is_integral"],
    formulas: ["_require_integral"],
}


@pytest.mark.parametrize("owner", list(RETIRED), ids=lambda o: o.__name__)
def test_retired_names_stay_gone(owner):
    assert [
        name
        for name in RETIRED[owner]
        if hasattr(owner, name) or hasattr(cyclestat, name)
    ] == []


# Each layer and the one cyclestat module whose private names it may not
# import, or None for all of them. hopping still shares the flat-list link
# builders of permutations.
LAYERS = {formulas: None, cli: None, hopping: "enumeration"}


@pytest.mark.parametrize("module", list(LAYERS), ids=lambda m: m.__name__)
def test_no_private_imports_across_modules(module):
    tree = ast.parse(inspect.getsource(module))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("cyclestat"))
        and LAYERS[module] in (None, (node.module or "").rpartition(".")[2])
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
