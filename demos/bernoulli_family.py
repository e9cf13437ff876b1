"""
Degenerate Bernoulli numbers and polynomials
============================================

The degenerate Bernoulli numbers β_{n,λ} are polynomials in the
deformation parameter λ, obtained from a triangular solve of

    B(t) · (e_λ(t) - 1)/t = 1

where e_λ(t) is the degenerate exponential. At λ = 0 they collapse to
the classical Bernoulli numbers, and at λ = 1 every one of them past
β_0 vanishes because e_1(t) = 1 + t.
"""

from fractions import Fraction

from degenpoly import bernoulli_polynomial, bernoulli_taps, classical_triangles

###############################################################################
# The first few numbers, symbolically
# -----------------------------------

print("degenerate Bernoulli numbers:")
for n, beta in enumerate(bernoulli_taps(6)):
    print(f"  β[{n}] = {beta}")

###############################################################################
# Classical limit at λ = 0
# ------------------------
# Evaluating at λ = 0 must reproduce the classical values computed by an
# independent triangular solve over plain rationals.

classical = classical_triangles(6).bernoulli
print("\nλ = 0 limit vs classical solve:")
for n, beta in enumerate(bernoulli_taps(6)):
    value = beta.eval(0)
    marker = "ok" if value == classical[n] else "MISMATCH"
    print(f"  n={n}: {value}  (classical {classical[n]})  {marker}")

###############################################################################
# Total degeneration at λ = 1
# ---------------------------

print("\nλ = 1 kills every positive index:")
print(" ", [str(beta.eval(1)) for beta in bernoulli_taps(8)])

###############################################################################
# Bernoulli polynomials
# ---------------------
# β_n(x) expands over the degenerate falling-factorial basis; its value
# at x = 0 is the number β_n again, and evaluating at rational points
# stays exact.

print("\ndegenerate Bernoulli polynomials:")
for n in range(4):
    print(f"  β[{n}](x) = {bernoulli_polynomial(n)}")

b3 = bernoulli_polynomial(3)
print("\nβ[3](1/2) =", b3.eval_x(Fraction(1, 2)))
assert b3.eval_x(0) == bernoulli_taps(3)[3]
