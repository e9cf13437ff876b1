"""Ring contracts: canonical form, exact arithmetic, basis constructors."""

from fractions import Fraction as F
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenpoly.algebra import (
    LAM,
    LambdaPoly,
    X,
    XLPoly,
    _add_linear,
    _at_lambda,
    _horner,
    _horner_bound,
    _horner_x_minus_one,
    _make,
    _pack,
    _packed_sums,
    _point_value,
    _slot,
    _unpack,
    _xl,
    binomial_poly,
    falling_factorial_classical,
    falling_factorial_degenerate,
)
from degenpoly.egf import bernoulli_taps
from degenpoly.sequences import (
    _clear_memos,
    bernoulli_polynomial,
    eulerian_at_minus_one,
    eulerian_poly,
    eulerian_table,
    route_rows,
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
    assert (X - 1) * (X - 1) == XLPoly((1, -2, 1))


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


# ---------------------------------------------------------------------------
# the integer-first storage against a plain Fraction-list model
# ---------------------------------------------------------------------------


def _model(values) -> list:
    """Reference model of a polynomial: its Fraction coefficients, trimmed."""
    cs = [F(v) for v in values]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _model_add(a, b, sign=1):
    out = [F(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return _model(out)


def _model_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _model(out)


def _model_str(cs) -> str:
    text = ""
    for i, c in enumerate(cs):
        if c == 0:
            continue
        body = "" if i == 0 else "λ" if i == 1 else f"λ^{i}"
        mag = abs(c)
        if not body:
            term = str(mag)
        elif mag == 1:
            term = body
        elif mag.denominator == 1:
            term = f"{mag}{body}"
        else:
            term = f"({mag}){body}"
        if text:
            text += (" + " if c > 0 else " - ") + term
        else:
            text = term if c > 0 else "-" + term
    return text or "0"


def _assert_is_model(p, cs):
    """p is a canonical LambdaPoly with exactly the model's coefficients."""
    assert type(p) is LambdaPoly
    assert p.coeffs == tuple(cs) and all(type(c) is F for c in p.coeffs)
    assert p.degree == len(cs) - 1 and p.is_zero == (not cs)
    assert str(p) == _model_str(cs)
    assert repr(p) == f"LambdaPoly({cs!r})"
    num, den = p._num, p._den
    assert all(type(c) is int for c in num) and type(den) is int and den > 0
    assert gcd(den, *num) == 1 and (not num or num[-1] != 0)
    same = LambdaPoly(cs)
    assert p == same and hash(p) == hash(same)
    if len(cs) <= 1:
        value = cs[0] if cs else F(0)
        assert p == value and hash(p) == hash(value)


#: ints of any size and fractions with large denominators, mixed in one list
ring_scalars = st.one_of(st.integers(), st.fractions(max_denominator=10**9), small_fractions)
coefficient_lists = st.lists(ring_scalars, max_size=6)
#: a ring operand with its model: a LambdaPoly, an int or a Fraction
operands = st.one_of(
    coefficient_lists.map(lambda cs: (LambdaPoly(cs), _model(cs))),
    ring_scalars.map(lambda v: (v, _model([v]))),
)


@given(coefficient_lists, operands, ring_scalars)
@settings(max_examples=200)
def test_ring_matches_fraction_list_model(cs, operand, v):
    p, a = LambdaPoly(cs), _model(cs)
    q, b = operand
    _assert_is_model(p, a)
    _assert_is_model(-p, [-c for c in a])
    _assert_is_model(p + q, _model_add(a, b))
    _assert_is_model(q + p, _model_add(a, b))
    _assert_is_model(p - q, _model_add(a, b, -1))
    _assert_is_model(q - p, _model_add(b, a, -1))
    _assert_is_model(p * q, _model_mul(a, b))
    _assert_is_model(q * p, _model_mul(a, b))
    _assert_is_model(p.scale_lambda(v), _model(c * F(v) ** i for i, c in enumerate(a)))
    value = sum((c * F(v) ** i for i, c in enumerate(a)), F(0))
    assert p.eval(v) == value and type(p.eval(v)) is F
    assert (p == q) == (a == b) and (q == p) == (a == b)


def _xl_model(rows) -> list:
    """Reference model of an XLPoly: a trimmed list of λ-coefficient models."""
    out = [_model(row) for row in rows]
    while out and not out[-1]:
        out.pop()
    return out


def _xl_model_add(a, b, sign=1):
    out = [[]] * max(len(a), len(b))
    for j, row in enumerate(a):
        out[j] = _model_add(out[j], row)
    for j, row in enumerate(b):
        out[j] = _model_add(out[j], row, sign)
    return _xl_model(out)


def _xl_model_mul(a, b):
    out = [[]] * max(len(a) + len(b) - 1, 0)
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            out[i + j] = _model_add(out[i + j], _model_mul(ra, rb))
    return _xl_model(out)


def _assert_is_xl_model(p, rows):
    """p is a trimmed XLPoly of canonical LambdaPoly coefficients equal to rows."""
    assert type(p) is XLPoly and type(p.coeffs) is tuple
    assert all(type(c) is LambdaPoly for c in p.coeffs)
    assert [list(c.coeffs) for c in p.coeffs] == rows
    assert not p.coeffs or not p.coeffs[-1].is_zero
    for c in p.coeffs:
        assert gcd(c._den, *c._num) == 1 and (not c._num or c._num[-1] != 0)


#: x-coefficient lists with zero coefficients inside and at the end
xl_rows = st.lists(st.one_of(st.just([]), st.just([0, 0]), st.lists(ring_scalars, max_size=3)), max_size=4)
#: an XLPoly ring operand with its model: an XLPoly, a LambdaPoly, an int or a Fraction
xl_operands = st.one_of(
    xl_rows.map(lambda rows: (XLPoly(LambdaPoly(r) for r in rows), _xl_model(rows))),
    coefficient_lists.map(lambda cs: (LambdaPoly(cs), _xl_model([cs]))),
    ring_scalars.map(lambda v: (v, _xl_model([[v]]))),
)


@given(xl_rows, xl_operands)
@settings(max_examples=100)
def test_xl_ring_matches_nested_fraction_list_model(rows, operand):
    p, a = XLPoly(LambdaPoly(r) for r in rows), _xl_model(rows)
    q, b = operand
    _assert_is_xl_model(p, a)
    _assert_is_xl_model(-p, _xl_model_add([], a, -1))
    _assert_is_xl_model(p + q, _xl_model_add(a, b))
    _assert_is_xl_model(q + p, _xl_model_add(a, b))
    _assert_is_xl_model(p - q, _xl_model_add(a, b, -1))
    _assert_is_xl_model(q - p, _xl_model_add(b, a, -1))
    _assert_is_xl_model(p * q, _xl_model_mul(a, b))
    _assert_is_xl_model(q * p, _xl_model_mul(a, b))
    for zero in (0, F(0), LambdaPoly(), XLPoly()):
        _assert_is_xl_model(p * zero, [])
        _assert_is_xl_model(zero * p, [])
    assert (p == q) == (a == b) and (q == p) == (a == b)


def test_one_value_by_two_routes_is_stored_identically():
    pairs = [
        (LambdaPoly((F(1, 3), F(2, 3))) * 3, LambdaPoly((1, 2))),
        (LambdaPoly((F(1, 2),)) + F(1, 2), LambdaPoly((1,))),
        (LambdaPoly((F(1, 6), F(1, 4))) * 2, LambdaPoly((F(1, 3), F(1, 2)))),
        (LambdaPoly((1, 1)).scale_lambda(F(1, 2)), LambdaPoly((F(2, 2), F(3, 6)))),
        (LambdaPoly((F(1, 2), 1, F(1, 4))) - LambdaPoly((F(1, 2), 0, F(1, 4))), LAM),
        (LambdaPoly((F(1, 3), F(5, 7))) * 0, LambdaPoly()),
        (LambdaPoly((F(7, 3), F(5, 3))) - 3 * LambdaPoly((F(7, 9), F(5, 9))), LambdaPoly()),
    ]
    # the closed form divides Bernoulli numbers by n + 1 and lands in Z[λ]
    for n in range(1, 9):
        pairs.append((eulerian_at_minus_one(n, "bernoulli"), eulerian_at_minus_one(n, "direct")))
    for p, q in pairs:
        assert (p._num, p._den) == (q._num, q._den) and hash(p) == hash(q), (p, q)
    assert (LambdaPoly()._num, LambdaPoly()._den) == ((), 1)


def test_floats_are_rejected():
    p = LambdaPoly((1, 2))
    calls = [
        lambda: LambdaPoly((0.1,)),
        lambda: LambdaPoly((1, 2.0)),
        lambda: LAM.eval(0.5),
        lambda: LambdaPoly().eval(0.5),
        lambda: p.scale_lambda(0.5),
        lambda: LambdaPoly().scale_lambda(0.5),
        lambda: X.eval_x(0.5),
        lambda: XLPoly().eval_x(1.0),
        lambda: X.eval_lambda(0.5),
        lambda: XLPoly().eval_lambda(0.5),
        lambda: X.scale_lambda(2.0),
        lambda: p * 0.5,
        lambda: p + 0.5,
        lambda: XLPoly((0.5,)),
        lambda: falling_factorial_degenerate(0.5, 2),
        lambda: falling_factorial_degenerate(F(1, 2), 2),
        lambda: falling_factorial_degenerate(X + 1, 2),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


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
    assert falling_factorial_degenerate(7, 0) == LambdaPoly((1,))


def test_falling_degenerate_degrees():
    for n in range(1, 8):
        p = falling_factorial_degenerate(X, n)
        assert p.x_degree == n
        assert p.lambda_degree == n - 1


def test_falling_degenerate_scalar_degrees():
    for n in range(1, 8):
        assert falling_factorial_degenerate(3, n).degree == n - 1
        assert falling_factorial_degenerate(0, n).is_zero


def test_falling_degenerate_memo_matches_plain_product():
    # asked for in growing and shrinking order
    lam = XLPoly.constant(LAM)
    for n in (9, 4, 0, 6):
        expected = XLPoly.constant(1)
        for i in range(n):
            expected = expected * (X - i * lam)
        assert falling_factorial_degenerate(X, n) == expected


def test_falling_classical():
    assert falling_factorial_classical(2) == X * X - X
    assert falling_factorial_classical(0) == XLPoly.constant(1)
    # oracle: expand x(x-1)(x-2) by ring ops
    assert falling_factorial_classical(3) == X * (X - 1) * (X - 2) == XLPoly((0, 2, -3, 1))


def test_falling_degenerate_specializations():
    power = XLPoly.constant(1)
    for n in range(7):
        p = falling_factorial_degenerate(X, n)
        assert p.eval_lambda(0) == power
        power = power * X
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


# ---------------------------------------------------------------------------
# integer kernels against the plain ring
# ---------------------------------------------------------------------------


def _stored(p):
    """What a value stores: (_num, _den), per x-coefficient for an XLPoly."""
    if isinstance(p, XLPoly):
        return tuple((c._num, c._den) for c in p.coeffs)
    return p._num, p._den


def _ring_falling(base, n: int) -> list:
    """(base)_{0,λ} .. (base)_{n,λ} by ring products, one factor at a time."""
    if isinstance(base, XLPoly):
        out, lam = [XLPoly.constant(1)], XLPoly.constant(LAM)
        for i in range(n):
            out.append(out[-1] * (base - i * lam))
    else:
        out = [LambdaPoly((1,))]
        for i in range(n):
            out.append(out[-1] * LambdaPoly((base, -i)))
    return out


def _ring_x_product(offset: int, n: int) -> XLPoly:
    """(x+offset)(x+offset-1)···(x+offset-n+1) by XLPoly products."""
    result = XLPoly.constant(1)
    for i in range(n):
        result = result * (X + (offset - i))
    return result


def test_falling_kernels_match_the_ring():
    _clear_memos()
    for base in range(-3, 7):
        ring = _ring_falling(base, 20)
        assert [_stored(falling_factorial_degenerate(base, n)) for n in range(21)] == [
            _stored(p) for p in ring
        ], base
    ring = _ring_falling(X, 20)
    assert [_stored(falling_factorial_degenerate(X, n)) for n in range(21)] == [
        _stored(p) for p in ring
    ]


@given(st.lists(st.integers(-10**40, 10**40), max_size=12), st.integers(0, 10**40))
@example([], 0)
@example([0, 0, 3], 0)
@example([-1, 1, -1], 1)
def test_pack_round_trips(num, extra):
    # the slot for a bound holds every numerator up to it, of either sign
    bound = max(map(abs, num), default=0) + extra
    S = _slot(bound)
    assert S % 8 == 0 and 2 ** (S - 1) > bound
    assert S == 8 or 2 ** (S - 9) <= bound  # a byte less would not hold it
    v = _pack(num, S)
    assert v == sum(c << (S * i) for i, c in enumerate(num))
    assert _make(_unpack(v, S), 1)._num == _make(list(num), 1)._num


def _horner_rows(cells: list, terms: int) -> list:
    """Rows A_0..A_{terms-1} of a Horner scheme out of 21 numerator lists,
    row i with its i + 1 x-coefficients."""
    return [cells[i * (i + 1) // 2:(i + 1) * (i + 2) // 2] for i in range(terms)]


@given(st.lists(st.lists(st.integers(-10**12, 10**12), max_size=5), min_size=21, max_size=21),
       st.integers(0, 6), st.integers(0, 65))
@settings(max_examples=200)
# empty x-coefficients first, in the middle and last, with and without λ
@example([[5], [], [3, -1], [], [7, 0, 2], []] + [[1, 1]] * 15, 3, 0)
@example([[5], [], [3, -1], [], [7, 0, 2], []] + [[1, 1]] * 15, 3, 9)
@example([[]] * 21, 6, 0)
@example([[-2, 4]] + [[]] * 20, 1, 3)
@example([[-2, 4]] + [[]] * 20, 0, 0)
def test_packed_step_is_the_ring_product(cells, terms, extra):
    # the Horner kernel of the gf-recursion and residual schemes, in the
    # slot of its own bound, equals in ring operators the sum it stands for,
    # Σ_{i<n} C(n,i)·A_i(x)·(1)_{n-i,-λ}·(x-1)^{n-i-1}: A_0..A_{terms-1}
    # come from the cells and the extra rows after them are zero, so s = n - i
    # runs up to n = terms + extra
    n = terms + extra
    rows = _horner_rows(cells, terms) + [[[]] * (i + 1) for i in range(terms, n)]
    norms = [max((abs(c) for a in row for c in a), default=0) for row in rows]
    S = _slot(_horner_bound(norms, n))
    out = _horner_x_minus_one([[_pack(a, S) for a in row] for row in rows], n, S)
    expected = XLPoly()
    for i in range(terms):
        m = n - i - 1  # (x - 1)^m
        power = XLPoly([(-1) ** (m - j) * comb(m, j) for j in range(m + 1)])
        rising = falling_factorial_degenerate(1, n - i).scale_lambda(-1)
        expected = expected + comb(n, i) * _xl([_make(list(a), 1) for a in rows[i]]) * power * rising
    assert len(out) == n
    assert _stored(_xl([_make(_unpack(v, S), 1) for v in out])) == _stored(expected)


@given(st.lists(st.lists(st.integers(-10**20, 10**20), max_size=6), max_size=6),
       st.lists(st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6), max_size=5))
@example([], [[1] * 6])
@example([[], [0, 0, 3], [-1]], [[2, -3, 5, 0, 0, 0], [0] * 6])
def test_packed_sums_are_the_int_sums(nums, columns):
    # each output is Σ_k columns[j][k]·nums[k] on numerator lists
    columns = [column[:len(nums)] for column in columns]
    expected = []
    for column in columns:
        acc = []
        for c, num in zip(column, nums):
            _add_linear(acc, num, c)
        expected.append(_make(acc, 1)._num)
    assert [_make(num, 1)._num for num in _packed_sums(columns, nums)] == expected


def test_falling_memo_hit_builds_no_polynomial(monkeypatch):
    _clear_memos()
    falling_factorial_degenerate(3, 6)
    falling_factorial_degenerate(X, 6)
    calls = []
    init = LambdaPoly.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LambdaPoly, "__init__", counted)
    for n in range(7):
        falling_factorial_degenerate(3, n)
        falling_factorial_degenerate(X, n)
    assert calls == []
    with pytest.raises(TypeError):
        falling_factorial_degenerate(0.5, 2)


def test_binomial_and_classical_kernels_match_the_ring():
    for n in range(13):
        assert _stored(falling_factorial_classical(n)) == _stored(_ring_x_product(0, n))
        for offset in range(-3, 4):
            ring = _ring_x_product(offset, n) * F(1, factorial(n))
            assert _stored(binomial_poly(offset, n)) == _stored(ring), (offset, n)


def _ring_eval_x(p: XLPoly, v) -> LambdaPoly:
    """p at x = v by a Horner scheme on the LambdaPoly ring operators."""
    acc = LambdaPoly()
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


EVAL_POINTS = (0, 1, -1, F(-2, 3), F(7, 5))


def test_eval_x_kernel_matches_the_ring():
    _clear_memos()
    beta = bernoulli_polynomial(7)
    assert len({c._den for c in beta.coeffs}) > 2  # coefficients over different denominators
    polys = (XLPoly(), XLPoly.constant(F(-3, 4)), eulerian_poly(6), beta)
    for p in polys:
        for v in EVAL_POINTS:
            assert _stored(p.eval_x(v)) == _stored(_ring_eval_x(p, v)), (p, v)


@given(xl_rows, st.one_of(ring_scalars, st.sampled_from(EVAL_POINTS)))
@settings(max_examples=100)
def test_eval_x_matches_the_ring_on_random_polys(rows, v):
    p = XLPoly(LambdaPoly(r) for r in rows)
    assert _stored(p.eval_x(v)) == _stored(_ring_eval_x(p, v))


#: x and λ for the point kernel: 0, ±1, small rationals, any int and
#: denominators up to 10^9.
point_scalars = st.one_of(st.sampled_from(EVAL_POINTS), ring_scalars)


@given(st.integers(0, 24), point_scalars, point_scalars)
@example(0, 0, 0)
@example(24, -1, 1)
@example(7, F(1, 10**9 + 7), F(-10**9, 3))
@settings(max_examples=100)
def test_point_kernel_is_eval_x_then_eval_on_the_eulerian_rows(n, x, lam):
    p = eulerian_poly(n)
    expected = p.eval_x(x).eval(lam)
    # the stored row, as the CLI passes it, and the trimmed coefficients
    for cells in (eulerian_table(n).row(n), p.coeffs):
        value = _point_value(cells, x, lam)
        assert (type(value), value) == (F, expected), (n, x, lam)


@given(xl_rows, point_scalars, point_scalars)
@example([[F(1, 2), F(-2, 3)], [], [F(3, 4), 0, F(5, 6)], [0, 0]], F(-2, 3), F(7, 5))  # four denominators
@example([], 3, 2)
@settings(max_examples=200)
def test_point_kernel_is_eval_x_then_eval(rows, x, lam):
    cells = [LambdaPoly(r) for r in rows]
    assert _point_value(cells, x, lam) == XLPoly(cells).eval_x(x).eval(lam)


def _plain_value(cell: LambdaPoly, lam) -> F:
    return sum((c * F(lam) ** i for i, c in enumerate(cell.coeffs)), F(0))


#: cells of one row: the Bernoulli taps (mixed denominators), a stirling2
#: row (summed over k! and reduced to Z[λ]), or drawn cells with
#: denominators up to 10^9, zero polynomials and the empty row among them
kernel_rows = st.one_of(
    st.integers(0, 24).map(lambda n: list(bernoulli_taps(n))),
    st.integers(0, 24).map(lambda n: list(route_rows("stirling2", n, "explicit")[n])),
    st.lists(st.one_of(st.just(LambdaPoly()), st.lists(ring_scalars, max_size=5).map(LambdaPoly)), max_size=5),
)


@given(kernel_rows, point_scalars)
@example([], F(3, 7))
@example([LambdaPoly(), LambdaPoly()], F(-2, 3))
@example([LambdaPoly((F(1, 2), 3)), LambdaPoly((F(-1, 999999999), 0, 7))], -1)
@settings(max_examples=150)
def test_at_lambda_is_each_cell_as_a_plain_fraction_sum(row, lam):
    sums, den = _at_lambda(row, lam)
    d = max([c.degree for c in row], default=0)
    assert all(type(s) is int for s in sums) and type(den) is int
    assert den == lcm(*[c._den for c in row]) * F(lam).denominator ** max(d, 0)
    assert [F(s, den) for s in sums] == [_plain_value(c, lam) for c in row]


@given(st.lists(st.integers(-10**12, 10**12), max_size=8), point_scalars)
@example([], 0)
@example([0, 0, 5], -1)
@example([3, -1, 4, 1], F(7, 10**9))
@settings(max_examples=150)
def test_horner_is_a_plain_fraction_sum(nums, v):
    acc, qpow = _horner(nums, v)
    assert type(acc) is int and qpow == F(v).denominator ** max(len(nums) - 1, 0)
    assert F(acc, qpow) == sum((c * F(v) ** i for i, c in enumerate(nums)), F(0))


@pytest.mark.parametrize("factor", [0, 1, -1, 6, F(3, 4), F(-5, 2), LambdaPoly((F(2, 3),)), LambdaPoly()])
def test_constant_factor_matches_the_convolution_model(factor):
    # a constant factor scales the numerators instead of convolving
    value = factor.coeff(0) if isinstance(factor, LambdaPoly) else F(factor)
    for cs in ((), (1,), (F(1, 2), -3, 7), (0, 0, F(5, 6)), (10**30, F(1, 10**9))):
        p = LambdaPoly(cs)
        expected = _model_mul(_model(cs), _model([value]))
        _assert_is_model(p * factor, expected)
        _assert_is_model(factor * p, expected)


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
    assert str(X * X - X) == "-x + x^2"
