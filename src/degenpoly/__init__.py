"""degenpoly: exact arithmetic for the degenerate sequence families.

The degenerate (λ-deformed) Eulerian, Bernoulli and Stirling families are
computed over Q[λ] and Q[λ][x] with exact rational coefficients, each by
several independent routes, and every route agreement plus the classical
λ=0 limits can be machine-checked through the named identity suite.
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
from .oracles import (
    ClassicalTriangles,
    PermStatDistribution,
    classical_triangles,
    descent_distribution,
    excedance_distribution,
)
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
from .verify import CheckSpec, Counterexample, UnknownCheckError, check_ids, run_suite

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
