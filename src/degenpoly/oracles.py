"""Brute-force and classical ground truth, independent of the λ-machinery.

These oracles deliberately avoid the polynomial rings: permutation
statistics are counted by full enumeration, and the classical triangles
are generated by their own textbook recursions over plain integers and
Fractions. The λ = 0 specialization of every degenerate family must match
them exactly. The one name taken from the package is ``algebra``'s memo
helper, which keeps the descent distributions and the classical triangles
per size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb
from operator import gt
from typing import List, NamedTuple, Tuple

from .algebra import _built

__all__ = [
    "MAX_ENUMERATION_N",
    "PermStatDistribution",
    "descent_distribution",
    "excedance_distribution",
    "ClassicalTriangles",
    "classical_triangles",
]

# Full enumeration of S_n; 9! = 362880 is the largest size worth paying for.
MAX_ENUMERATION_N = 9


class PermStatDistribution(NamedTuple):
    """counts[k] = number of permutations of {1..n} with statistic value k."""

    n: int
    counts: Tuple[int, ...]


def _distribution(n: int, statistic) -> PermStatDistribution:
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(
            f"permutation enumeration is limited to 1 <= n <= {MAX_ENUMERATION_N}, got {n}"
        )
    counts = [0] * n
    for sigma in permutations(range(1, n + 1)):
        counts[statistic(sigma)] += 1
    return PermStatDistribution(n, tuple(counts))


def _descents(sigma) -> int:
    return sum(map(gt, sigma, sigma[1:]))


def descent_distribution(n: int) -> PermStatDistribution:
    """Counts of d(σ) = |{i in 1..n-1 : σ(i) > σ(i+1)}| over all of S_n.

    Memoized per n and process.
    """
    return _built(("descents", n), _distribution, n, _descents)


def excedance_distribution(n: int) -> PermStatDistribution:
    """Counts of e(σ) = |{i in 1..n-1 : σ(i) > i}| over all of S_n.

    Equidistributed with descents; the identity suite asserts this rather
    than assuming it. Not memoized, and enumerated on its own, so the
    descent and excedance oracles stay independent.
    """
    fixed = range(1, n)  # map stops at the shorter argument: σ(n) is never compared
    return _distribution(n, lambda sigma: sum(map(gt, sigma, fixed)))


class ClassicalTriangles(NamedTuple):
    """Classical integer/rational reference tables, rows 0..max_n.

    eulerian[n][k] for 0 <= k <= n (top entry 0 for n >= 1), the signed
    first-kind and the second-kind Stirling triangles, and the Bernoulli
    numbers in the B_1 = -1/2 convention.
    """

    max_n: int
    eulerian: Tuple[Tuple[int, ...], ...]
    stirling1: Tuple[Tuple[int, ...], ...]
    stirling2: Tuple[Tuple[int, ...], ...]
    bernoulli: Tuple[Fraction, ...]


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

    bernoulli: List[Fraction] = [Fraction(1)]
    for n in range(1, max_n + 1):
        # triangular solve of B(t)·(e^t - 1)/t = 1
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n, k) * bernoulli[k] * Fraction(1, n - k + 1)
        bernoulli.append(-acc)

    return ClassicalTriangles(max_n, eulerian, stirling1, stirling2, tuple(bernoulli))
