"""cyclestat: exact cyclic permutation statistics over conjugacy classes.

A pure-Python library for the joint behaviour of excedances and cyclic
valleys on the symmetric group: statistics and canonical cycle forms,
the valley-hopping group actions and their orbits, exact distribution
polynomials over conjugacy classes (by a product over cycles, or by
brute-force enumeration), and closed-form counterparts
(Eulerian-polynomial products, with the radical substitutions read
through the Catalan series as one integer sum per class) verified
against the enumeration.

All arithmetic is exact (arbitrary-precision rationals); there is no
floating point anywhere.
"""
from . import algebra, enumeration, formulas, hopping, permutations
from .algebra import *
from .enumeration import *
from .formulas import *
from .hopping import *
from .permutations import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *permutations.__all__,
    *hopping.__all__,
    *enumeration.__all__,
    *algebra.__all__,
    *formulas.__all__,
]
