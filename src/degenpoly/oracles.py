"""Brute-force and classical ground truth, independent of the λ-machinery.

These oracles deliberately avoid the polynomial rings: permutation
statistics are counted by full enumeration, and the classical triangles
are generated by their own textbook recursions over plain integers and
Fractions. The enumeration packs all of S_n into one ``bytes`` string and
evaluates a statistic's defining comparisons for every permutation at
once, as big-int arithmetic on one byte lane per permutation (SIMD within
a register). The λ = 0 specialization of every degenerate family must
match them exactly. The one name taken from the package is ``algebra``'s
memo helper, which keeps the descent distributions and the classical
triangles per size.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, permutations
from math import comb, factorial

from .algebra import _built

__all__ = [
    "MAX_ENUMERATION_N",
    "PermStatDistribution",
    "descent_distribution",
    "excedance_distribution",
    "ClassicalTriangles",
    "classical_triangles",
]

# Full enumeration of S_n. At n = 9 (9! = 362880 permutations) each statistic
# takes ~70 ms on one Xeon core under CPython 3.11, and `verify --n-max 9` of
# both permutation checks ~0.17 s. Every value σ(i) <= n <= 9 and every
# count <= n - 1 stays below 0x80, so no byte lane of ``_distribution``
# borrows from or carries into its neighbour.
MAX_ENUMERATION_N = 9


class PermStatDistribution(namedtuple("PermStatDistribution", ("n", "counts"))):
    """counts[k] = number of permutations of {1..n} with statistic value k."""

    __slots__ = ()


def _distribution(n: int, bound) -> PermStatDistribution:
    """Count the i < n − 1 with σ(i+1) > bound(columns, i, ones), over all σ of S_n.

    ``columns[i]`` holds σ(i+1) in one byte lane per permutation, and
    ``ones`` is 1 in every lane. With a = σ(i+1) and b its bound, a lane of
    (b | H) − a is 0x80 + b − a, whose high bit is clear iff a > b; flipping
    it with H and shifting it down gives the 0/1 indicator of a > b.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(
            f"permutation enumeration is limited to 1 <= n <= {MAX_ENUMERATION_N}, got {n}"
        )
    m = factorial(n)
    data = bytes(chain.from_iterable(permutations(range(1, n + 1))))
    columns = [int.from_bytes(data[i::n], "little") for i in range(n)]
    ones = int.from_bytes(b"\x01" * m, "little")
    high = ones << 7
    total = 0
    for i in range(n - 1):
        total += ((bound(columns, i, ones) | high) - columns[i] ^ high) >> 7 & ones
    lanes = total.to_bytes(m, "little")
    return PermStatDistribution(n, tuple(map(lanes.count, range(n))))


def descent_distribution(n: int) -> PermStatDistribution:
    """Counts of d(σ) = |{i in 1..n-1 : σ(i) > σ(i+1)}| over all of S_n.

    Memoized per n and process.
    """
    return _built(
        ("descents", n), _distribution, n, lambda columns, i, ones: columns[i + 1]
    )


def excedance_distribution(n: int) -> PermStatDistribution:
    """Counts of e(σ) = |{i in 1..n-1 : σ(i) > i}| over all of S_n.

    Equidistributed with descents; the identity suite asserts this rather
    than assuming it. Not memoized, and enumerated on its own, so the
    descent and excedance oracles stay independent.
    """
    return _distribution(n, lambda columns, i, ones: (i + 1) * ones)


class ClassicalTriangles(namedtuple("ClassicalTriangles",
                                      ("max_n", "eulerian", "stirling1", "stirling2", "bernoulli"))):
    """Classical integer/rational reference tables, rows 0..max_n.

    eulerian[n][k] for 0 <= k <= n (top entry 0 for n >= 1), the signed
    first-kind and the second-kind Stirling triangles, and the Bernoulli
    numbers in the B_1 = -1/2 convention.
    """

    __slots__ = ()


def classical_triangles(max_n: int) -> ClassicalTriangles:
    """Generate the classical tables by their standard recursions.

    Memoized per max_n and process.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    return _built(("classical", max_n), _classical, max_n)


def _classical(max_n: int) -> ClassicalTriangles:
    def grow(rows, step):
        for n in range(1, max_n + 1):
            prev = rows[-1]
            get = lambda k: prev[k] if 0 <= k < len(prev) else 0
            rows.append(tuple(step(n, k, get) for k in range(n + 1)))
        return tuple(rows)

    eulerian = grow([(1,)], lambda n, k, a: (n - k) * a(k - 1) + (k + 1) * a(k))
    stirling1 = grow([(1,)], lambda n, k, a: a(k - 1) - (n - 1) * a(k))
    stirling2 = grow([(1,)], lambda n, k, a: a(k - 1) + k * a(k))

    bernoulli: list[Fraction] = [Fraction(1)]
    for n in range(1, max_n + 1):
        # triangular solve of B(t)·(e^t - 1)/t = 1
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n, k) * bernoulli[k] * Fraction(1, n - k + 1)
        bernoulli.append(-acc)

    return ClassicalTriangles(max_n, eulerian, stirling1, stirling2, tuple(bernoulli))
