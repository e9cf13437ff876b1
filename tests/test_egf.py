"""Truncated EGF arithmetic, degenerate exponentials, Bernoulli solve."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.algebra import LambdaPoly, X, XLPoly, falling_factorial_degenerate
from degenpoly.egf import (
    Egf,
    bernoulli_taps,
    degenerate_exp,
    gf_residual,
)
from degenpoly.oracles import classical_triangles

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
lambda_polys = st.lists(small_fractions, max_size=3).map(LambdaPoly)


@st.composite
def egf_triples(draw):
    order = draw(st.integers(min_value=0, max_value=6))
    taps = st.lists(lambda_polys, min_size=order + 1, max_size=order + 1)
    return tuple(Egf(order, draw(taps)) for _ in range(3))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_mul_identity():
    one = Egf.constant(LambdaPoly((1,)), 4)
    assert one * one == one


def test_exp_squared_gives_powers_of_two():
    # all-ones taps are e^t; its square must have taps 2^n
    exp = Egf(5, tuple(LambdaPoly((1,)) for _ in range(6)))
    sq = exp * exp
    assert [tap.constant_value() for tap in sq.taps] == [2**n for n in range(6)]


def test_degenerate_exp_one_squared():
    e1 = degenerate_exp(1, 2)
    tap2 = (e1 * e1).taps[2]
    # by hand: (1)_{2,λ} + 2·1·1 + (1)_{2,λ} = 4 - 2λ = (2)_{2,λ}
    assert tap2 == LambdaPoly((4, -2)) == falling_factorial_degenerate(2, 2)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Egf.constant(LambdaPoly((1,)), 3) * Egf.constant(LambdaPoly((1,)), 4)
    with pytest.raises(ValueError):
        Egf(2, (LambdaPoly((1,)),))


@given(egf_triples())
@settings(max_examples=60, deadline=None)
def test_mul_commutes_and_associates(series):
    f, g, h = series
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


# ---------------------------------------------------------------------------
# degenerate exponentials
# ---------------------------------------------------------------------------


def test_degenerate_exp_of_one():
    assert degenerate_exp(1, 2).taps == (
        LambdaPoly((1,)),
        LambdaPoly((1,)),
        LambdaPoly((1, -1)),
    )


def test_degenerate_exp_scaled_argument():
    e = degenerate_exp(X - 1, 2)
    assert e.taps[0] == XLPoly.constant(1)
    assert e.taps[1] == X - 1
    assert e.taps[2] == (X - 1) * (X - 1) * LambdaPoly((1, -1))
    # e_{-λ}((x-1)t), as the generating-function residual takes it
    assert e.taps[2].scale_lambda(-1) == (X - 1) * (X - 1) * LambdaPoly((1, 1))


def test_exponent_form_power_law():
    # e_λ^1(t) multiplied into itself m times gives e_λ^m(t), whose taps
    # are (m)_{n,λ}: the degenerate binomial law
    def exponent_form(m, order):
        return Egf(order, [falling_factorial_degenerate(m, n) for n in range(order + 1)])

    for order in range(9):
        e1 = exponent_form(1, order)
        acc = Egf.constant(LambdaPoly((1,)), order)
        for m in range(1, 5):
            acc = acc * e1
            assert acc == exponent_form(m, order), (m, order)


def test_scaled_argument_form_has_no_power_law():
    # e_λ(t)·e_λ(2t) and e_λ(3t) agree at λ=0 only
    lhs = degenerate_exp(F(1), 4) * degenerate_exp(F(2), 4)
    rhs = degenerate_exp(F(3), 4)
    assert lhs != rhs
    assert [t.eval(0) for t in lhs.taps] == [t.eval(0) for t in rhs.taps]


# ---------------------------------------------------------------------------
# Bernoulli solve
# ---------------------------------------------------------------------------


def test_bernoulli_golden_table():
    beta = bernoulli_taps(3)
    assert beta[0] == LambdaPoly((1,))
    assert beta[1] == LambdaPoly((F(-1, 2), F(1, 2)))
    assert beta[2] == LambdaPoly((F(1, 6), 0, F(-1, 6)))
    assert beta[3] == LambdaPoly((0, F(-1, 4), 0, F(1, 4)))


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
    assert gf_residual(n_max).is_zero()


def test_gf_residual_taps_live_in_xl_ring():
    residual = gf_residual(2)
    assert all(isinstance(tap, XLPoly) for tap in residual.taps)
