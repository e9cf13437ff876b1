"""
Worpitzky expansion and the Stirling bridges
============================================

Three structural identities connect the families:

  * the degenerate Worpitzky expansion writes (x)_{n,λ} as a positive
    combination of binomial polynomials C(x+k, n) with λ-negated
    Eulerian coefficients;
  * the second-kind Stirling numbers fall out of the Eulerian row, and
    conversely the Eulerian numbers fall out of the Stirling row;
  * the first-kind numbers convert the classical falling factorial into
    the degenerate basis.
"""

from degenpoly import (
    X,
    eulerian_explicit,
    eulerian_from_stirling2,
    falling_factorial_degenerate,
    stirling1_row,
    stirling2_degenerate,
    stirling2_from_eulerian,
    worpitzky_lhs,
)

###############################################################################
# Worpitzky, bivariate and exact
# ------------------------------

print("worpitzky expansion vs (x)_{n,λ}:")
for n in range(5):
    lhs = worpitzky_lhs(n)
    rhs = falling_factorial_degenerate(X, n)
    print(f"  n={n}: {lhs}   [equal: {lhs == rhs}]")

###############################################################################
# Eulerian -> Stirling
# --------------------

print("\nsecond-kind Stirling numbers, explicit vs via the Eulerian row:")
for n in range(5):
    row_a = [str(stirling2_degenerate(n, k)) for k in range(n + 1)]
    row_b = [str(stirling2_from_eulerian(n, k)) for k in range(n + 1)]
    assert row_a == row_b
    print(f"  n={n}: {row_a}")

###############################################################################
# Stirling -> Eulerian
# --------------------

print("\nEulerian numbers recovered from the Stirling row:")
for n in range(1, 5):
    row = [str(eulerian_from_stirling2(n, k)) for k in range(1, n + 1)]
    assert row == [str(eulerian_explicit(n, k - 1)) for k in range(1, n + 1)]
    print(f"  n={n}: {row}")

###############################################################################
# First kind: basis conversion
# ----------------------------
# (x)_n = Σ_k S1(n,k)·(x)_{k,λ}; the coefficients are again λ-polynomials.

print("\nfirst-kind rows:")
for n in range(5):
    print(f"  n={n}: " + " | ".join(str(entry) for entry in stirling1_row(n)))
