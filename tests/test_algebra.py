"""Ring contracts: canonical form, exact arithmetic, basis constructors."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.algebra import (
    LAM,
    LambdaPoly,
    X,
    XLPoly,
    binomial_poly,
    falling_factorial_classical,
    falling_factorial_degenerate,
)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
lambda_polys = st.lists(small_fractions, max_size=5).map(LambdaPoly)
xl_polys = st.lists(st.lists(small_fractions, max_size=4).map(LambdaPoly), max_size=4).map(XLPoly)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_difference_of_squares():
    assert LambdaPoly((1, -1)) * LambdaPoly((1, 1)) == LambdaPoly((1, 0, -1))


def test_additive_identity():
    p = LambdaPoly((F(1, 2), -3, 7))
    assert p + LambdaPoly() == p


def test_xl_expansion():
    assert (X - 1) ** 2 == XLPoly((1, -2, 1))


def test_canonical_trailing_zeros():
    assert LambdaPoly((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert LambdaPoly((0, 0)).is_zero
    assert XLPoly((LambdaPoly((1,)), LambdaPoly())).x_degree == 0


def test_scalar_coercion_and_comparison():
    assert LambdaPoly((3,)) == 3
    assert 2 * LAM == LambdaPoly((0, 2))
    assert X * LambdaPoly((0, 1)) == XLPoly((LambdaPoly(), LAM))
    assert LambdaPoly((1,)) != LambdaPoly((1, 1))


def test_constants_hash_like_the_values_they_equal():
    p = LambdaPoly((F(1, 2), 3))
    for poly, value in [
        (LambdaPoly((3,)), 3),
        (LambdaPoly((F(-2, 3),)), F(-2, 3)),
        (LambdaPoly(), 0),
        (XLPoly((5,)), 5),
        (XLPoly(), 0),
        (XLPoly((p,)), p),
        (XLPoly((LambdaPoly((3,)),)), LambdaPoly((3,))),
    ]:
        assert poly == value and hash(poly) == hash(value), (poly, value)
        assert value in {poly} and poly in {value}


@given(lambda_polys, lambda_polys)
def test_add_then_subtract_roundtrip(p, q):
    assert (p + q) - q == p


@given(lambda_polys, lambda_polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(lambda_polys, lambda_polys, lambda_polys)
@settings(max_examples=50)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(lambda_polys, lambda_polys)
def test_degree_additivity(p, q):
    if not p.is_zero and not q.is_zero:
        assert (p * q).degree == p.degree + q.degree


@given(xl_polys, xl_polys)
@settings(max_examples=50)
def test_xl_ring_laws(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) - q == p


@given(xl_polys, xl_polys, small_fractions)
@settings(max_examples=50)
def test_eval_x_commutes_with_ring_ops(p, q, v):
    assert (p + q).eval_x(v) == p.eval_x(v) + q.eval_x(v)
    assert (p * q).eval_x(v) == p.eval_x(v) * q.eval_x(v)


def test_pow():
    assert LambdaPoly((1, 1)) ** 3 == LambdaPoly((1, 3, 3, 1))
    assert LambdaPoly((2,)) ** 0 == 1
    with pytest.raises(ValueError):
        LambdaPoly((1, 1)) ** -1


# ---------------------------------------------------------------------------
# falling factorials and binomial polynomials
# ---------------------------------------------------------------------------


def test_falling_degenerate_x_two_factors():
    assert falling_factorial_degenerate(X, 2) == X * X - XLPoly.constant(LAM) * X


def test_falling_degenerate_scalar_base():
    # oracle: expand (1)(1-λ)(1-2λ) by explicit ring multiplication
    expected = LambdaPoly((1,)) * LambdaPoly((1, -1)) * LambdaPoly((1, -2))
    assert falling_factorial_degenerate(1, 3) == expected == LambdaPoly((1, -3, 2))


def test_falling_degenerate_empty_product():
    assert falling_factorial_degenerate(X, 0) == XLPoly.constant(1)
    assert falling_factorial_degenerate(F(7, 3), 0) == LambdaPoly((1,))


def test_falling_degenerate_degrees():
    for n in range(1, 8):
        p = falling_factorial_degenerate(X, n)
        assert p.x_degree == n
        assert p.lambda_degree == n - 1


def test_falling_degenerate_scalar_degrees():
    for n in range(1, 8):
        assert falling_factorial_degenerate(3, n).degree == n - 1
        assert falling_factorial_degenerate(F(1, 2), n).degree == n - 1
        assert falling_factorial_degenerate(0, n).is_zero


def test_falling_degenerate_memo_matches_plain_product():
    # asked for in growing and shrinking order; an integral Fraction base is
    # multiplied out on every call, the equal int base is memoized
    lam = XLPoly.constant(LAM)
    for n in (9, 4, 0, 6):
        expected = XLPoly.constant(1)
        for i in range(n):
            expected = expected * (X - i * lam)
        assert falling_factorial_degenerate(X, n) == expected
        assert falling_factorial_degenerate(5, n) == falling_factorial_degenerate(F(5), n)


def test_falling_classical():
    assert falling_factorial_classical(2) == X * X - X
    assert falling_factorial_classical(0) == XLPoly.constant(1)
    # oracle: expand x(x-1)(x-2) by ring ops
    assert falling_factorial_classical(3) == X * (X - 1) * (X - 2) == XLPoly((0, 2, -3, 1))


def test_falling_degenerate_specializations():
    for n in range(7):
        p = falling_factorial_degenerate(X, n)
        assert p.eval_lambda(0) == X**n
        assert p.eval_lambda(1) == falling_factorial_classical(n)


def test_binomial_poly_basics():
    assert binomial_poly(0, 1) == X
    assert binomial_poly(1, 2) == XLPoly((0, F(1, 2), F(1, 2)))
    assert binomial_poly(5, 0) == XLPoly.constant(1)


def test_binomial_poly_against_pascal_triangle():
    # Pascal-triangle oracle, no factorials involved
    size = 30
    pascal = [[1]]
    for _ in range(size):
        prev = pascal[-1]
        pascal.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    for n in range(13):
        for k in range(13):
            p = binomial_poly(k, n)
            for m in range(13):
                expected = pascal[m + k][n] if n <= m + k else 0
                assert p.eval_x(m).constant_value() == expected


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        falling_factorial_degenerate(X, -1)
    with pytest.raises(ValueError):
        falling_factorial_classical(-2)
    with pytest.raises(ValueError):
        binomial_poly(0, -1)


# ---------------------------------------------------------------------------
# substitution and evaluation
# ---------------------------------------------------------------------------


def test_substitute_lambda_examples():
    p = LambdaPoly((F(1, 6), 0, F(-1, 6)))  # the second Bernoulli value
    assert p.scale_lambda(F(1, 2)) == LambdaPoly((F(1, 6), 0, F(-1, 24)))
    assert p.scale_lambda(1) == p
    assert p.scale_lambda(0) == LambdaPoly((F(1, 6),))


@given(lambda_polys, small_fractions, small_fractions)
def test_substitute_lambda_composes(p, a, b):
    assert p.scale_lambda(a).scale_lambda(b) == p.scale_lambda(a * b)


def test_eval_lambda_examples():
    p = LambdaPoly((1, -3, 2))
    assert p.eval(0) == 1
    assert p.eval(1) == 0
    assert LambdaPoly((4, 0, -4)).eval(0) == 4


@given(lambda_polys, small_fractions)
def test_eval_lambda_matches_naive_sum(p, v):
    naive = sum((c * v**i for i, c in enumerate(p.coeffs)), F(0))
    assert p.eval(v) == naive


def test_eval_lambda_on_xl():
    p = falling_factorial_degenerate(X, 2)
    assert p.eval_lambda(F(1, 2)) == X * X - F(1, 2) * X


def test_constant_value_guard():
    with pytest.raises(ValueError):
        LAM.constant_value()
    with pytest.raises(ValueError):
        X.constant_value()
    assert XLPoly.constant(LambdaPoly((2,))).constant_value() == 2


def test_human_rendering():
    assert str(LambdaPoly((1, -3, 2))) == "1 - 3λ + 2λ^2"
    assert str(LambdaPoly((F(-1, 2), F(1, 2)))) == "-1/2 + (1/2)λ"
    assert str(LambdaPoly()) == "0"
    two = XLPoly((LambdaPoly((1, -1)), LambdaPoly((1, 1))))
    assert str(two) == "(1 - λ) + (1 + λ)x"
    assert str(X**2 - X) == "-x + x^2"
