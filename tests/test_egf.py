"""The Bernoulli solve and the generating-function residual."""

from fractions import Fraction as F
from math import comb

import pytest

from degenpoly.algebra import LAM, LambdaPoly, X, XLPoly, falling_factorial_degenerate
from degenpoly.egf import _residual_taps, bernoulli_taps, gf_residual
from degenpoly.oracles import classical_triangles
from degenpoly.sequences import _clear_memos, eulerian_table


# ---------------------------------------------------------------------------
# Bernoulli solve
# ---------------------------------------------------------------------------


def test_bernoulli_golden_table():
    beta = bernoulli_taps(3)
    assert beta[0] == LambdaPoly((1,))
    assert beta[1] == LambdaPoly((F(-1, 2), F(1, 2)))
    assert beta[2] == LambdaPoly((F(1, 6), 0, F(-1, 6)))
    assert beta[3] == LambdaPoly((0, F(-1, 4), 0, F(1, 4)))


def _ring_bernoulli(order: int) -> list:
    """β_0 .. β_order by the ring solve
    β_n = -Σ_{k<n} C(n,k)·β_k·(1)_{n-k+1,λ}/(n-k+1), with the falling
    factorials multiplied out in the ring."""
    falling = [LambdaPoly((1,))]
    for i in range(order + 1):
        falling.append(falling[-1] * LambdaPoly((1, -i)))
    g = [falling[j + 1] * F(1, j + 1) for j in range(order + 1)]
    beta = [LambdaPoly((1,))]
    for n in range(1, order + 1):
        acc = LambdaPoly()
        for k in range(n):
            acc = acc + comb(n, k) * (beta[k] * g[n - k])
        beta.append(-acc)
    return beta


def test_bernoulli_kernel_matches_the_ring():
    _clear_memos()
    ring = _ring_bernoulli(24)
    assert [(b._num, b._den) for b in bernoulli_taps(24)] == [(b._num, b._den) for b in ring]


def test_bernoulli_taps_returns_a_new_list():
    taps = bernoulli_taps(6)
    expected = list(taps)
    taps[2] = LambdaPoly((99,))
    taps.append(LambdaPoly((1,)))
    del taps[0]
    assert bernoulli_taps(6) == expected
    assert bernoulli_taps(12)[:7] == expected
    assert len(bernoulli_taps(3)) == 4


def test_bernoulli_lambda0_is_classical():
    beta = bernoulli_taps(12)
    frozen = [F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]
    assert [b.eval(0) for b in beta[:7]] == frozen
    classical = classical_triangles(12).bernoulli
    assert [b.eval(0) for b in beta] == list(classical)


def test_bernoulli_lambda1_vanishes():
    beta = bernoulli_taps(12)
    assert all(b.eval(1) == 0 for b in beta[1:])
    assert beta[0].eval(1) == 1


def test_bernoulli_degree_bound():
    for n, b in enumerate(bernoulli_taps(10)):
        assert b.degree <= n


# ---------------------------------------------------------------------------
# generating-function residual
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_max", [0, 1, 4, 8])
def test_gf_residual_vanishes(n_max):
    residual = gf_residual(n_max)
    assert len(residual) == n_max + 1
    assert all(tap.is_zero for tap in residual)


def test_gf_residual_taps_live_in_xl_ring():
    residual = gf_residual(2)
    assert type(residual) is tuple
    assert all(isinstance(tap, XLPoly) for tap in residual)


def _egf_product_residual(rows) -> list:
    """S(t)·(x - e_{-λ}((x-1)t)) - (x-1) as a product of truncated EGFs in
    the ring: tap_n = Σ_k C(n,k)·s_k·g_{n-k}, with s_k = A_k(x) and g the
    taps of x - e_{-λ}((x-1)t), e_{-λ} having taps (1)_{n,-λ}·(x-1)^n."""
    s = [XLPoly(row) for row in rows]
    g, power = [], XLPoly.constant(1)
    for n in range(len(rows)):
        g.append(-(power * falling_factorial_degenerate(1, n).scale_lambda(-1)))
        power = power * (X - 1)
    g[0] = X + g[0]
    taps = []
    for n in range(len(rows)):
        acc = XLPoly()
        for k in range(n + 1):
            acc = acc + comb(n, k) * (s[k] * g[n - k])
        taps.append(acc - (X - 1) if n == 0 else acc)
    return taps


@pytest.mark.parametrize("perturbation", [1, F(1, 3) * LAM])
def test_residual_taps_match_the_egf_product_on_perturbed_rows(perturbation):
    _clear_memos()
    rows = [list(row) for row in eulerian_table(12).rows]
    rows[5][2] = rows[5][2] + perturbation
    taps = _residual_taps(rows)
    model = _egf_product_residual(rows)
    assert len(taps) == len(model) == 13
    for n, (tap, expected) in enumerate(zip(taps, model)):
        assert tap == expected, n
    assert all(tap.is_zero for tap in taps[:5])
    assert not taps[5].is_zero

