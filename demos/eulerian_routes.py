"""
Four independent ways to the degenerate Eulerian numbers
========================================================

The triangle A(n,k) of degenerate Eulerian numbers can be computed by

  1. an explicit alternating sum of degenerate falling factorials,
  2. a two-term triangular recursion,
  3. a generating-function recursion for the polynomials A_n(x),
  4. (at λ = 0) brute-force counting of permutation descents.

They must all agree, coefficient by coefficient. This script walks the
first rows through every route.
"""

from degenpoly import (
    descent_distribution,
    eulerian_explicit,
    eulerian_poly,
    eulerian_table,
    excedance_distribution,
)

###############################################################################
# The triangle, symbolically
# --------------------------

print("rows 0..4 of the degenerate Eulerian triangle:")
table = eulerian_table(4)
for n in range(5):
    print(f"  n={n}: " + " | ".join(str(entry) for entry in table.row(n)))

###############################################################################
# Route agreement
# ---------------

print("\nexplicit sum vs recursion, rows 0..8:")
recursive = eulerian_table(8, "recursion")
agree = all(
    eulerian_explicit(n, k) == recursive.entry(n, k)
    for n in range(9)
    for k in range(n + 1)
)
print("  agree:", agree)

print("\npolynomial assembly vs generating-function recursion:")
for n in range(5):
    assembled = eulerian_poly(n, "recursion")
    direct = eulerian_poly(n, "gf-recursion")
    print(f"  A_{n}(x) = {assembled}   [routes match: {assembled == direct}]")

###############################################################################
# The permutation oracle at λ = 0
# -------------------------------
# Descents and excedances are equidistributed over the symmetric group,
# and their joint distribution is the classical Eulerian row.

print("\nλ = 0 rows vs descent/excedance counts:")
for n in range(1, 7):
    row = [table_entry.eval(0) for table_entry in eulerian_table(n).row(n)[:n]]
    descents = list(descent_distribution(n).counts)
    excedances = list(excedance_distribution(n).counts)
    print(f"  n={n}: λ=0 row {row}  descents {descents}  excedances {excedances}")
    assert row == descents == excedances

###############################################################################
# Row sums are constant in λ
# --------------------------
# Σ_k A(n,k) = n! exactly, with every λ coefficient cancelling.

print("\nrow sums (should be 0!, 1!, 2!, ...):")
sums = []
for n in range(7):
    total = eulerian_poly(n).eval_x(1)
    sums.append(str(total))
print(" ", sums)
