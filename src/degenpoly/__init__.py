"""degenpoly: exact arithmetic for the degenerate sequence families.

The degenerate (λ-deformed) Eulerian, Bernoulli and Stirling families are
computed over Q[λ] and Q[λ][x] with exact rational coefficients, each by
several independent routes, and every route agreement plus the classical
λ=0 limits can be machine-checked through the named identity suite.

The package re-exports each module's own ``__all__``. The rings
(``algebra``), the generating-function layer (``egf``) and the sequence
builders (``sequences``) load with the package. The names of the identity
suite (``verify``) and of the permutation enumerations it checks against
(``oracles``) load on first access, so that a ``table`` or ``eval``
command never imports either module.
"""

__version__ = "0.1.0"

from . import algebra, egf, sequences
from .algebra import *
from .egf import *
from .sequences import *

#: The ``__all__`` of each module that loads on first access.
_ON_DEMAND = {
    "oracles": ("MAX_ENUMERATION_N", "PermStatDistribution", "descent_distribution",
                "excedance_distribution", "ClassicalTriangles", "classical_triangles"),
    "verify": ("Check", "CheckSpec", "Counterexample", "RangeOverrideError", "UnknownCheckError",
               "check_ids", "get_check", "run_check", "run_suite"),
}

__all__ = ["__version__", *algebra.__all__, *egf.__all__, *sequences.__all__,
           *(name for names in _ON_DEMAND.values() for name in names)]


def __getattr__(name: str):
    for module, names in _ON_DEMAND.items():
        if name in names:
            from importlib import import_module

            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
