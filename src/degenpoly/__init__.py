"""degenpoly: exact arithmetic for the degenerate sequence families.

The degenerate (λ-deformed) Eulerian, Bernoulli and Stirling families are
computed over Q[λ] and Q[λ][x] with exact rational coefficients, each by
several independent routes, and every route agreement plus the classical
λ=0 limits can be machine-checked through the named identity suite.

The rings, the generating-function layer and the sequence builders load
with the package. The names of ``__all__`` that come from ``verify`` (the
identity suite) and ``oracles`` (the permutation enumerations it checks
against) load on first access, so that a ``table`` or ``eval`` command
never imports either module.
"""

__version__ = "0.1.0"

from .algebra import (
    LAM,
    LambdaPoly,
    X,
    XLPoly,
    binomial_poly,
    falling_factorial_classical,
    falling_factorial_degenerate,
)
from .egf import bernoulli_taps, gf_residual
from .sequences import (
    EulerianTable,
    bernoulli_polynomial,
    eulerian_at_minus_one,
    eulerian_explicit,
    eulerian_from_stirling2,
    eulerian_poly,
    eulerian_table,
    power_sum,
    stirling1_row,
    stirling2_degenerate,
    stirling2_from_eulerian,
    worpitzky_lhs,
)

__all__ = [
    "__version__",
    "LAM",
    "LambdaPoly",
    "X",
    "XLPoly",
    "binomial_poly",
    "falling_factorial_classical",
    "falling_factorial_degenerate",
    "bernoulli_taps",
    "gf_residual",
    "ClassicalTriangles",
    "PermStatDistribution",
    "classical_triangles",
    "descent_distribution",
    "excedance_distribution",
    "EulerianTable",
    "bernoulli_polynomial",
    "eulerian_at_minus_one",
    "eulerian_explicit",
    "eulerian_from_stirling2",
    "eulerian_poly",
    "eulerian_table",
    "power_sum",
    "stirling1_row",
    "stirling2_degenerate",
    "stirling2_from_eulerian",
    "worpitzky_lhs",
    "CheckSpec",
    "Counterexample",
    "UnknownCheckError",
    "check_ids",
    "run_suite",
]

#: The names of ``__all__`` that load on first access, by defining module.
_ON_DEMAND = {
    **dict.fromkeys(("ClassicalTriangles", "PermStatDistribution", "classical_triangles",
                     "descent_distribution", "excedance_distribution"), "oracles"),
    **dict.fromkeys(("CheckSpec", "Counterexample", "UnknownCheckError", "check_ids",
                     "run_suite"), "verify"),
}


def __getattr__(name: str):
    module = _ON_DEMAND.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
