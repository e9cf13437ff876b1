"""The degenerate sequence families, each with independent computation routes.

All families are λ-deformations of classical combinatorial sequences and
reduce to them at λ = 0:

  eulerian numbers      A(n,k)   -> LambdaPoly, three routes
  eulerian polynomials  A_n(x)   -> XLPoly, assembly or direct recursion
  bernoulli numbers     β_n      -> LambdaPoly (EGF triangular solve)
  bernoulli polynomials β_n(x)   -> XLPoly
  stirling, 2nd kind    {n k}    -> LambdaPoly, explicit sum or via eulerian
  stirling, 1st kind    S1(n,k)  -> LambdaPoly, basis conversion
  power sums            Σ(k)_n   -> LambdaPoly, three routes

The redundant routes are the point: every pair of routes realizes one of
the identities this package machine-checks, so disagreement anywhere is a
bug (here or in the identity itself). Routes never share code beyond the
base rings.

Where a formula is stated for -λ (the Worpitzky expansion, the Stirling
bridge, the power-sum expansion), the entries are summed first and the
sum is λ-negated once, by flipping the sign of its odd numerators
(``algebra._negate_lambda``), rather than kept as a second table.

The Eulerian triangles (one per route), the Bernoulli polynomials and
the Stirling numbers of both kinds are memoized per process, like the
falling factorials and the Bernoulli taps they are built from: filled on
first use, sliced for a smaller n, continued by the route's own
recursion for a larger one, never rebuilt. Each route keeps its own
rows, so no route answers for another. ``_clear_memos`` empties them
all, and the memoized descent distributions of ``oracles`` with them;
the CLI calls it before each command.

The builders whose values lie in Z[λ], or in Z[λ] over one known
denominator, run on int numerator lists through ``algebra._add_linear``
and build one LambdaPoly (or one XLPoly of them) per value: the
``recursion`` route's cells, the explicit sums ``eulerian_explicit`` and
``stirling2_degenerate`` (over k!), ``stirling2_from_eulerian`` (over
k!), ``eulerian_from_stirling2`` (over the lcm of the {n j}
denominators), ``power_sum`` by the ``direct`` and ``eulerian`` routes,
``power_sum(..., "bernoulli")`` (an integer Horner scheme in x over the
common denominator of β_{n+1}(x)), ``bernoulli_polynomial`` (a Horner
scheme in the falling basis (x)_{j,λ}, one int list per x-coefficient,
over the lcm of the β_k denominators) and ``worpitzky_lhs``
(x-coefficient j summed from the int coefficients of (x+k)_n, over n!).
The ``direct`` route of ``eulerian_at_minus_one`` evaluates A_n(-1) with
``XLPoly.eval_x``, itself an integer Horner scheme. The ``gf-recursion``
route sums its recursion as a nested Horner scheme in (x-1): each step
multiplies the int numerator lists of the partial sum by (1 + sλ)(x-1)
(``algebra._times_x_minus_one``) and adds C(n,i)·A_i(x), so it forms no
λ-polynomial product. ``stirling1_row`` and the ``bernoulli`` route of
``eulerian_at_minus_one`` use the ring operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Dict, List, NamedTuple, Tuple

from .algebra import (
    _FALLING,
    _add_linear,
    _make,
    _negate_lambda,
    _times_x_minus_one,
    _x_falling,
    _xl,
    LambdaPoly,
    X,
    XLPoly,
    falling_factorial_classical,
    falling_factorial_degenerate,
)
from .egf import _BERNOULLI, bernoulli_taps
from .oracles import _DESCENTS

__all__ = [
    "EULERIAN_ROUTES",
    "AT_MINUS_ONE_ROUTES",
    "BERNOULLI_ROUTES",
    "STIRLING2_ROUTES",
    "STIRLING1_ROUTES",
    "POWER_SUM_ROUTES",
    "EulerianTable",
    "eulerian_explicit",
    "eulerian_table",
    "eulerian_poly",
    "eulerian_at_minus_one",
    "bernoulli_polynomial",
    "stirling2_degenerate",
    "stirling2_from_eulerian",
    "stirling1_row",
    "eulerian_from_stirling2",
    "power_sum",
    "worpitzky_lhs",
]

# Route names per family; the first one is the default.
EULERIAN_ROUTES = ("recursion", "explicit", "gf-recursion")
AT_MINUS_ONE_ROUTES = ("direct", "bernoulli")
BERNOULLI_ROUTES = ("egf-triangular",)
STIRLING2_ROUTES = ("explicit", "eulerian")
STIRLING1_ROUTES = ("basis-conversion",)
POWER_SUM_ROUTES = ("direct", "eulerian", "bernoulli")


def _check_nonneg(**kwargs):
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def eulerian_explicit(n: int, k: int) -> LambdaPoly:
    """Degenerate Eulerian number by the explicit alternating sum

        A(n,k) = Σ_{i=0}^{k} C(n+1,i)·(-1)^i·(k-i+1)_{n,λ}

    Total in (n,k): for k > n the sum itself collapses to the zero
    polynomial (an n-th degree sequence differenced more than n times),
    which is asserted by the verification suite rather than special-cased.
    """
    _check_nonneg(n=n, k=k)
    acc = []
    for i in range(k + 1):
        c = comb(n + 1, i)
        _add_linear(acc, falling_factorial_degenerate(k - i + 1, n)._num, -c if i % 2 else c)
    return _make(acc, 1)


def _extend_recursion(rows: List[tuple], max_n: int) -> None:
    """Append triangle rows up to max_n by the two-term recursion

        A(n,k) = ((n-k)+(n-1)λ)·A(n-1,k-1) + (k+1-(n-1)λ)·A(n-1,k)

    with A(0,0) = 1 and zero outside the triangle. Every entry lies in
    Z[λ], so each cell is summed on the int numerators of its two parents.
    """
    if not rows:
        rows.append((LambdaPoly((1,)),))
    for n in range(len(rows), max_n + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            acc = []
            if k >= 1:  # A(n-1,k-1)
                _add_linear(acc, prev[k - 1]._num, n - k, n - 1)
            if k <= n - 1:  # A(n-1,k)
                _add_linear(acc, prev[k]._num, k + 1, 1 - n)
            row.append(_make(acc, 1))
        rows.append(tuple(row))


def _extend_explicit(rows: List[tuple], max_n: int) -> None:
    for n in range(len(rows), max_n + 1):
        rows.append(tuple(eulerian_explicit(n, k) for k in range(n + 1)))


def _extend_gf_recursion(rows: List[tuple], max_n: int) -> None:
    """Append rows up to max_n as the coefficients of A_n(x), built by the
    generating-function recursion

        A_n(x) = Σ_{i=0}^{n-1} C(n,i)·A_i(x)·(1)_{n-i,-λ}·(x-1)^{n-i-1}

    From term i+1 to term i the factor (1)_{n-i,-λ}·(x-1)^{n-i-1} gains one
    factor (1 + (n-i-1)λ)(x-1), so the sum is a nested Horner scheme,

        acc <- acc·(1 + (n-i)λ)·(x-1) + C(n,i)·A_i(x),   i = 1 .. n-1,

    from acc = A_0 = 1, on int numerator lists (one per x-coefficient;
    every entry lies in Z[λ]) with no λ-polynomial product. The sum has
    x-degree n-1, so row n ends in a zero A(n,n).
    """
    if not rows:
        rows.append((LambdaPoly((1,)),))
    zero = _make([], 1)
    for n in range(len(rows), max_n + 1):
        acc = [[1]]
        for i in range(1, n):
            acc = _times_x_minus_one(acc, n - i)
            c = comb(n, i)
            for a, entry in zip(acc, rows[i]):
                _add_linear(a, entry._num, c)
        rows.append(tuple(_make(a, 1) for a in acc) + (zero,))


#: Each route's triangle rows as far as any call has asked. A route only
#: ever extends its own rows, so no route answers for another.
_EULERIAN_ROWS: Dict[str, List[tuple]] = {route: [] for route in EULERIAN_ROUTES}
_EXTEND_EULERIAN = {
    "recursion": _extend_recursion,
    "explicit": _extend_explicit,
    "gf-recursion": _extend_gf_recursion,
}


class EulerianTable(NamedTuple):
    """Triangular table of degenerate Eulerian numbers, tagged by route."""

    max_n: int
    route: str
    rows: Tuple[Tuple[LambdaPoly, ...], ...]

    def entry(self, n: int, k: int) -> LambdaPoly:
        """A(n,k); indices outside the triangle give the zero polynomial."""
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n out of table range 0..{self.max_n}: {n}")
        if 0 <= k <= n:
            return self.rows[n][k]
        return LambdaPoly()

    def row(self, n: int) -> Tuple[LambdaPoly, ...]:
        return self.rows[n]


def eulerian_table(max_n: int, route: str = EULERIAN_ROUTES[0]) -> EulerianTable:
    """The triangle 0..max_n by the chosen route.

    Rows are memoized per route and process: a smaller max_n slices the
    rows already built, a larger one continues the route from its last row.
    """
    _check_nonneg(max_n=max_n)
    if route not in _EULERIAN_ROWS:
        raise ValueError(f"unknown route {route!r}, expected one of {EULERIAN_ROUTES}")
    rows = _EULERIAN_ROWS[route]
    if len(rows) <= max_n:
        _EXTEND_EULERIAN[route](rows, max_n)
    return EulerianTable(max_n, route, tuple(rows[: max_n + 1]))


def eulerian_poly(n: int, route: str = EULERIAN_ROUTES[0]) -> XLPoly:
    """Degenerate Eulerian polynomial A_n(x) = Σ_k A(n,k)·x^k.

    Each route's row n is the coefficient list; 'gf-recursion' builds its
    rows as the polynomials of the generating-function recursion, without
    touching the numbers of the other routes.
    """
    _check_nonneg(n=n)
    return XLPoly(eulerian_table(n, route).row(n))


def eulerian_at_minus_one(n: int, route: str = AT_MINUS_ONE_ROUTES[0]) -> LambdaPoly:
    """The value A_n(-1), i.e. the alternating sum Σ_k (-1)^k A(n,k).

    route 'direct' evaluates the Eulerian polynomial at x = -1; route
    'bernoulli' uses the closed form through the Bernoulli numbers,

        A_n(-1) = 2^{n+1}·(2^{n+1}·β_{n+1,λ/2} - β_{n+1,λ})/(n+1),  n ≥ 1

    which exercises the λ -> λ/2 substitution.
    """
    _check_nonneg(n=n)
    if route == "direct":
        return eulerian_poly(n).eval_x(-1)
    if route == "bernoulli":
        if n == 0:
            return LambdaPoly((1,))
        beta = bernoulli_taps(n + 1)[n + 1]
        halved = beta.scale_lambda(Fraction(1, 2))
        return (2 ** (n + 1) * halved - beta) * Fraction(2 ** (n + 1), n + 1)
    raise ValueError(f"unknown route {route!r}, expected one of {AT_MINUS_ONE_ROUTES}")


def bernoulli_polynomial(n: int) -> XLPoly:
    """Degenerate Bernoulli polynomial β_n(x) = Σ_j C(n,j)·β_{n-j}·(x)_{j,λ}.

    A Horner scheme in the falling basis, since (x)_{j+1,λ} = (x)_{j,λ}·(x-jλ):

        acc <- acc·(x - jλ) + C(n,j)·β_{n-j},   j = n-1 .. 0,

    from acc = β_0 = 1, on int numerator lists (one per x-coefficient) over
    the lcm D of the denominators of β_0..β_n. Multiplying by (x - jλ)
    takes x-coefficient m to c_{m-1} - jλ·c_m. Memoized per n and process.
    """
    _check_nonneg(n=n)
    poly = _BERNOULLI_POLY.get(n)
    if poly is None:
        beta = bernoulli_taps(n)
        den = lcm(*[b._den for b in beta])
        acc = [[den]]  # β_0 = 1
        for j in range(n - 1, -1, -1):
            acc = [_add_linear(list(prev), c, 0, -j) for prev, c in zip([[]] + acc, acc + [[]])]
            b = beta[n - j]
            _add_linear(acc[0], b._num, comb(n, j) * (den // b._den))
        poly = _BERNOULLI_POLY[n] = _xl([_make(c, den) for c in acc])
    return poly


#: β_n(x) per n already asked for.
_BERNOULLI_POLY: Dict[int, XLPoly] = {}
#: {n k} per (n, k) already asked for.
_STIRLING2: Dict[Tuple[int, int], LambdaPoly] = {}
#: S1(n,0)..S1(n,n) per n already asked for.
_STIRLING1: Dict[int, Tuple[LambdaPoly, ...]] = {}


def stirling2_degenerate(n: int, k: int) -> LambdaPoly:
    """Degenerate Stirling number of the second kind, explicit sum

        {n k} = ((-1)^k/k!)·Σ_{j=0}^{k} (-1)^j·C(k,j)·(j)_{n,λ}

    Total in (n,k): the sum vanishes identically for k > n. Memoized per
    (n, k) and process.
    """
    _check_nonneg(n=n, k=k)
    value = _STIRLING2.get((n, k))
    if value is None:
        acc = []
        for j in range(k + 1):
            c = comb(k, j)
            _add_linear(acc, falling_factorial_degenerate(j, n)._num, -c if (k - j) % 2 else c)
        value = _STIRLING2[(n, k)] = _make(acc, factorial(k))
    return value


def _clear_memos() -> None:
    """Forget every memoized builder value: the Eulerian rows, the Bernoulli
    polynomials, the Stirling numbers of both kinds, the Bernoulli taps past
    β_0, the falling factorials and the descent distributions."""
    for rows in _EULERIAN_ROWS.values():
        rows.clear()
    _BERNOULLI_POLY.clear()
    _STIRLING2.clear()
    _STIRLING1.clear()
    del _BERNOULLI[1:]
    _FALLING.clear()
    _DESCENTS.clear()


def stirling2_from_eulerian(n: int, k: int) -> LambdaPoly:
    """Second-kind Stirling number out of the λ-negated Eulerian row:

        {n k} = (1/k!)·Σ_{j=0}^{n} A_{-λ}(n,j)·C(j, n-k)
    """
    _check_nonneg(n=n, k=k)
    if k > n:
        raise ValueError("route requires 0 <= k <= n")
    row = eulerian_table(n).row(n)
    acc = []
    for j in range(n - k, n + 1):  # C(j, n-k) vanishes below j = n-k
        _add_linear(acc, row[j]._num, comb(j, n - k))
    return _make(_negate_lambda(acc), factorial(k))


def stirling1_row(n: int) -> List[LambdaPoly]:
    """Coefficients S1(n,0)..S1(n,n) of (x)_n in the basis (x)_{k,λ}.

    Triangular elimination: (x)_{k,λ} is monic of x-degree k, so peeling
    the leading x-coefficient off the remainder is exact and terminates.
    Memoized per n and process; each call returns a new list.
    """
    _check_nonneg(n=n)
    row = _STIRLING1.get(n)
    if row is None:
        rem = falling_factorial_classical(n)
        out = [LambdaPoly() for _ in range(n + 1)]
        for k in range(n, -1, -1):
            c = rem.coeff(k)
            if not c.is_zero:
                out[k] = c
                rem = rem - falling_factorial_degenerate(X, k) * c
        if not rem.is_zero:
            raise AssertionError("basis conversion left a nonzero remainder")
        row = _STIRLING1[n] = tuple(out)
    return list(row)


def eulerian_from_stirling2(n: int, k: int) -> LambdaPoly:
    """A(n,k-1) as a finite sum over second-kind Stirling numbers:

        A(n,k-1) = (-1)^k·Σ_{j=0}^{k} (-1)^j·C(n-j, n-k)·j!·{n j}
    """
    if n < 1 or not 1 <= k <= n:
        raise ValueError("requires n >= 1 and 1 <= k <= n")
    values = [stirling2_degenerate(n, j) for j in range(k + 1)]
    den = lcm(*[v._den for v in values])
    acc = []
    for j, v in enumerate(values):
        c = comb(n - j, n - k) * factorial(j) * (den // v._den)
        _add_linear(acc, v._num, c if (k - j) % 2 == 0 else -c)
    return _make(acc, den)


def power_sum(m: int, n: int, route: str = POWER_SUM_ROUTES[0]) -> LambdaPoly:
    """The degenerate power sum Σ_{k=1}^{m} (k)_{n,λ}, by three routes:

      direct     literal summation of the falling factorials
      eulerian   Σ_{j=0}^{n} A_{-λ}(n,j)·C(m+j+1, n+1)
      bernoulli  (β_{n+1}(m+1) - β_{n+1})/(n+1)
    """
    if m < 1 or n < 1:
        raise ValueError("requires m >= 1 and n >= 1")
    if route == "direct":
        acc = []
        for k in range(1, m + 1):
            _add_linear(acc, falling_factorial_degenerate(k, n)._num, 1)
        return _make(acc, 1)
    if route == "eulerian":
        row = eulerian_table(n).row(n)
        acc = []
        for j in range(n + 1):
            _add_linear(acc, row[j]._num, comb(m + j + 1, n + 1))
        return _make(_negate_lambda(acc), 1)
    if route == "bernoulli":
        # β_{n+1}(m+1) - β_{n+1}(0) = Σ_{j≥1} c_j·(m+1)^j: an integer Horner
        # scheme over the common denominator that skips c_0
        cs = bernoulli_polynomial(n + 1).coeffs
        den = lcm(*[c._den for c in cs])
        acc = []
        for c in reversed(cs[1:]):
            _add_linear(acc, c._num, den // c._den)
            acc = [a * (m + 1) for a in acc]
        return _make(acc, den * (n + 1))
    raise ValueError(f"unknown route {route!r}, expected one of {POWER_SUM_ROUTES}")


def worpitzky_lhs(n: int) -> XLPoly:
    """Left side of the degenerate Worpitzky expansion,

        Σ_{k=0}^{n} C(x+k, n)·A_{-λ}(n,k)

    which the identity suite compares against (x)_{n,λ}.
    """
    _check_nonneg(n=n)
    row = eulerian_table(n).row(n)
    # x-coefficient j sums A(n,k) times the int coefficient of x^j in (x+k)_n
    accs = [[] for _ in range(n + 1)]
    cs = _x_falling(0, n)
    for k, entry in enumerate(row):
        if k:  # (x+k)_n = (x+k-1)_n·(x+k)/(x+k-n): exact synthetic division
            q, carry = [0] * n, 0
            for j in range(n, 0, -1):
                carry = q[j - 1] = cs[j] - (k - n) * carry
            cs = _add_linear([], q, k, 1)
        if entry._num:
            for acc, c in zip(accs, cs):
                _add_linear(acc, entry._num, c)
    den = factorial(n)
    return _xl([_make(_negate_lambda(acc), den) for acc in accs])
