"""Permutation statistics and classical triangle oracles."""

from fractions import Fraction as F
from itertools import permutations
from math import factorial

import pytest

from degenpoly import sequences
from degenpoly.oracles import (
    MAX_ENUMERATION_N,
    _distribution,
    classical_triangles,
    descent_distribution,
    excedance_distribution,
)


def test_descent_small_cases():
    assert descent_distribution(1).counts == (1,)
    assert descent_distribution(2).counts == (1, 1)
    assert descent_distribution(3).counts == (1, 4, 1)
    assert descent_distribution(4).counts == (1, 11, 11, 1)


def test_descent_distribution_is_memoized_per_n():
    sequences._clear_memos()
    first = descent_distribution(5)
    assert descent_distribution(5) is first
    sequences._clear_memos()
    rebuilt = descent_distribution(5)
    assert rebuilt is not first
    assert rebuilt == first


def _reference_counts(n):
    """Descent and excedance counts over S_n, one permutation at a time."""
    descents, excedances = [0] * n, [0] * n
    for sigma in permutations(range(1, n + 1)):
        descents[sum(1 for i in range(n - 1) if sigma[i] > sigma[i + 1])] += 1
        excedances[sum(1 for i in range(n - 1) if sigma[i] > i + 1)] += 1
    return tuple(descents), tuple(excedances)


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_match_a_per_permutation_enumeration(n):
    descents, excedances = _reference_counts(n)
    assert descent_distribution(n).counts == descents
    assert excedance_distribution(n).counts == excedances


def test_counts_at_the_largest_enumeration_match_the_classical_triangle():
    # n = 9 is the widest lane count of the byte-lane kernel: 9! lanes per column
    n = MAX_ENUMERATION_N
    row = classical_triangles(n).eulerian[n][:n]
    assert descent_distribution(n).counts == row
    assert excedance_distribution(n).counts == row


@pytest.mark.parametrize("n", [2, 5])
def test_the_lane_kernel_counts_strictly_greater(n):
    # the Eulerian rows are symmetric, so a kernel that counted σ(i) <= bound
    # (ascents for descents) would pass every test on the public counts
    m = factorial(n)
    at_zero, at_top = (m,) + (0,) * (n - 1), (0,) * (n - 1) + (m,)
    assert _distribution(n, lambda columns, i, ones: n * ones).counts == at_zero
    assert _distribution(n, lambda columns, i, ones: columns[i]).counts == at_zero
    assert _distribution(n, lambda columns, i, ones: 0).counts == at_top
    # σ(i) > 1 at every i < n but where σ(i) = 1
    above_one = _distribution(n, lambda columns, i, ones: ones).counts
    assert above_one == (0,) * (n - 2) + ((n - 1) * factorial(n - 1), factorial(n - 1))


def test_excedance_small_cases():
    assert excedance_distribution(1).counts == (1,)
    assert excedance_distribution(2).counts == (1, 1)
    assert excedance_distribution(3).counts == (1, 4, 1)


# rows 5..7 of the classical Eulerian triangle
EULERIAN_ROWS = {
    5: (1, 26, 66, 26, 1),
    6: (1, 57, 302, 302, 57, 1),
    7: (1, 120, 1191, 2416, 1191, 120, 1),
}


@pytest.mark.parametrize("n", sorted(EULERIAN_ROWS))
def test_golden_rows_from_the_classical_triangle(n):
    sequences._clear_memos()
    assert descent_distribution(n).counts == EULERIAN_ROWS[n]
    assert excedance_distribution(n).counts == EULERIAN_ROWS[n]


def test_equidistribution():
    for n in range(1, 7):
        assert descent_distribution(n).counts == excedance_distribution(n).counts, n


def test_counts_sum_to_factorial():
    total = 1
    for n in range(1, 7):
        total *= n
        assert sum(descent_distribution(n).counts) == total


def test_enumeration_bound_enforced():
    with pytest.raises(ValueError, match=str(MAX_ENUMERATION_N)):
        descent_distribution(MAX_ENUMERATION_N + 1)
    with pytest.raises(ValueError):
        excedance_distribution(0)


def test_classical_eulerian_rows():
    tri = classical_triangles(6).eulerian
    assert tri[3] == (1, 4, 1, 0)
    assert tri[4] == (1, 11, 11, 1, 0)
    # matches the enumeration oracle
    for n in range(1, 7):
        assert tri[n][:n] == descent_distribution(n).counts


def test_classical_eulerian_recursion_pointwise():
    tri = classical_triangles(15).eulerian
    for n in range(1, 16):
        for k in range(n + 1):
            left = tri[n - 1][k - 1] if 0 <= k - 1 < n else 0
            right = tri[n - 1][k] if k < n else 0
            assert tri[n][k] == (n - k) * left + (k + 1) * right, (n, k)


def test_classical_stirling_rows():
    tables = classical_triangles(5)
    assert tables.stirling2[4] == (0, 1, 7, 6, 1)
    assert tables.stirling1[4] == (0, -6, 11, -6, 1)


def test_classical_worpitzky_spot_value():
    # n=2 at x=3: C(3,2)·A(2,0) + C(4,2)·A(2,1) = 3 + 6 = 9 = 3^2
    row = classical_triangles(2).eulerian[2]
    assert 3 * row[0] + 6 * row[1] == 9


def test_classical_bernoulli_values():
    bern = classical_triangles(8).bernoulli
    assert bern[1] == F(-1, 2)
    assert bern[2] == F(1, 6)
    assert bern[3] == 0
    assert bern[4] == F(-1, 30)


def test_classical_triangles_are_memoized_per_size():
    first = classical_triangles(12)
    assert classical_triangles(12) is first
    assert classical_triangles(11) is not first
    sequences._clear_memos()
    rebuilt = classical_triangles(12)
    assert rebuilt is not first
    assert rebuilt == first


def test_triangle_bound_enforced():
    # only a negative size is rejected; the integer recursions run at any n
    with pytest.raises(ValueError):
        classical_triangles(-1)
    big = classical_triangles(30)
    assert sum(big.eulerian[30]) == factorial(30)
    assert big.stirling2[30][30] == 1
