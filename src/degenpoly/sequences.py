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

``ROUTES`` maps each family to its routes, default first, and each route
to its private builder; one check refuses an unknown route. The rows of
every table route are memoized per process in ``_ROWS``, per (family,
route): a builder appends complete rows by its route's own formula from
the first row not yet built, so a smaller n is sliced, a larger one
continues the route and nothing is rebuilt. A route reads another
route's rows only where its formula is stated over them (``stirling2``
by ``eulerian`` sums the ``recursion`` triangle). The Bernoulli
polynomials are memoized per n, as are the falling factorials and the
Bernoulli taps in ``algebra`` and ``egf``. The ``direct`` power-sum route
keeps one column per n in ``_POWER_SUMS``, the prefix sums
Σ_{k≤m}(k)_{n,λ} for m = 0, 1, ..., each the last plus one falling
factorial: a larger m extends the column, a smaller one is a lookup.
Its ``eulerian`` and ``bernoulli`` routes are not memoized; they read
the memoized Eulerian rows and β_{n+1}(x) on every call. A_n(-1) is
memoized per (route, n) in ``_AT_MINUS_ONE``; a memo only ever keys on a
route ``_route`` has accepted. The memos outlive a CLI command, so later
commands in the process reuse them; as only complete rows, taps, sums
and values are stored, a command that fails midway leaves nothing
partial behind. ``_clear_memos`` empties them all, and the memoized
descent distributions of ``oracles`` with them.

Every builder but one runs on int numerator lists through
``algebra._add_linear`` and builds one LambdaPoly (or one XLPoly of them)
per value, over 1 or over one known denominator: the three Eulerian
routes (``gf-recursion`` as a nested Horner scheme in (x-1) with
``algebra._times_x_minus_one``), the ``basis-conversion`` route of
``stirling1`` (a Newton division by x, x - λ, x - 2λ, ...), both
``stirling2`` routes and ``eulerian_from_stirling2``, the three power-sum
routes, ``bernoulli_polynomial`` (a Horner scheme in the falling basis
with ``algebra._times_x_minus_lambda``) and ``worpitzky_lhs``. The
``direct`` route of ``eulerian_at_minus_one`` evaluates A_n(-1) with
``XLPoly.eval_x``, itself an integer Horner scheme. Its ``bernoulli``
route uses the ring operators on purpose: it exercises the λ -> λ/2
substitution.
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
    _times_x_minus_lambda,
    _times_x_minus_one,
    _x_falling,
    _xl,
    LambdaPoly,
    XLPoly,
    falling_factorial_degenerate,
)
from .egf import _BERNOULLI, bernoulli_taps
from .oracles import _DESCENTS

__all__ = [
    "ROUTES",
    "EulerianTable",
    "route_rows",
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


def _check_nonneg(**kwargs):
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _falling_numerators(n: int, top: int) -> list:
    """The numerators of (j)_{n,λ} for j = 0..top, fetched once for a row."""
    return [falling_factorial_degenerate(j, n)._num for j in range(top + 1)]


def _explicit_sum(n: int, k: int, falling: list) -> LambdaPoly:
    """A(n,k) by the explicit sum, with falling[j] the numerators of (j)_{n,λ}."""
    acc = []
    for i in range(k + 1):
        c = comb(n + 1, i)
        _add_linear(acc, falling[k - i + 1], -c if i % 2 else c)
    return _make(acc, 1)


def eulerian_explicit(n: int, k: int) -> LambdaPoly:
    """Degenerate Eulerian number by the explicit alternating sum

        A(n,k) = Σ_{i=0}^{k} C(n+1,i)·(-1)^i·(k-i+1)_{n,λ}

    Total in (n,k): for k > n the sum itself collapses to the zero
    polynomial (an n-th degree sequence differenced more than n times),
    which is asserted by the verification suite rather than special-cased.
    """
    _check_nonneg(n=n, k=k)
    return _explicit_sum(n, k, _falling_numerators(n, k + 1))


def _extend_recursion(rows: List[tuple], max_n: int) -> None:
    """Eulerian rows by the two-term recursion

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
        falling = _falling_numerators(n, n + 1)
        rows.append(tuple(_explicit_sum(n, k, falling) for k in range(n + 1)))


def _extend_gf_recursion(rows: List[tuple], max_n: int) -> None:
    """Eulerian rows as the coefficients of A_n(x), built by the
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


def _extend_bernoulli(rows: List[tuple], max_n: int) -> None:
    """Rows (β_n,) of one cell each, the taps of the egf triangular solve."""
    rows.extend((b,) for b in bernoulli_taps(max_n)[len(rows):])


def _extend_stirling1(rows: List[tuple], max_n: int) -> None:
    """Rows S1(n,0)..S1(n,n), the coefficients of (x)_n in the basis (x)_{k,λ}.

    Its Newton coefficients at the nodes 0, λ, 2λ, ...: as (x)_{k+1,λ} =
    (x)_{k,λ}·(x - kλ), dividing (x)_n by x - jλ for j = 0..n in turn leaves
    S1(n,j) as remainder j. Each synthetic division, q_{i-1} = p_i + jλ·q_i,
    runs on int numerator lists, one per x-coefficient, highest power first.
    """
    for n in range(len(rows), max_n + 1):
        p, row = [[c] for c in reversed(_x_falling(0, n))], []
        for j in range(n + 1):
            q = []
            for c in p:
                q.append(_add_linear(list(c), q[-1] if q else [], 0, j))
            row.append(_make(q.pop(), 1))
            p = q
        rows.append(tuple(row))


def _extend_stirling2(rows: List[tuple], max_n: int) -> None:
    """Rows {n 0}..{n n} by the explicit sum

        {n k} = ((-1)^k/k!)·Σ_{j=0}^{k} (-1)^j·C(k,j)·(j)_{n,λ}
    """
    for n in range(len(rows), max_n + 1):
        falling, row = _falling_numerators(n, n), []
        for k in range(n + 1):
            acc = []
            for j in range(k + 1):
                c = comb(k, j)
                _add_linear(acc, falling[j], -c if (k - j) % 2 else c)
            row.append(_make(acc, factorial(k)))
        rows.append(tuple(row))


def _extend_stirling2_eulerian(rows: List[tuple], max_n: int) -> None:
    """Rows {n 0}..{n n} out of the λ-negated rows of the ``recursion``
    Eulerian triangle:

        {n k} = (1/k!)·Σ_{j=0}^{n} A_{-λ}(n,j)·C(j, n-k)
    """
    eulerian = _rows("eulerian", "recursion", max_n)
    for n in range(len(rows), max_n + 1):
        row = []
        for k in range(n + 1):
            acc = []
            for j in range(n - k, n + 1):  # C(j, n-k) vanishes below j = n-k
                _add_linear(acc, eulerian[n][j]._num, comb(j, n - k))
            row.append(_make(_negate_lambda(acc), factorial(k)))
        rows.append(tuple(row))


def _power_sum_direct(m: int, n: int) -> LambdaPoly:
    """Entry m of the column of n in ``_POWER_SUMS``, where entry k is
    entry k-1 plus (k)_{n,λ}; a request past the column's end extends it."""
    column = _POWER_SUMS.get(n)
    if column is None:
        column = _POWER_SUMS[n] = [_make([], 1)]
    for k in range(len(column), m + 1):
        acc = _add_linear(list(column[-1]._num), falling_factorial_degenerate(k, n)._num, 1)
        column.append(_make(acc, 1))
    return column[m]


def _power_sum_eulerian(m: int, n: int) -> LambdaPoly:
    row = eulerian_table(n).row(n)
    acc = []
    for j in range(n + 1):
        _add_linear(acc, row[j]._num, comb(m + j + 1, n + 1))
    return _make(_negate_lambda(acc), 1)


def _power_sum_bernoulli(m: int, n: int) -> LambdaPoly:
    # β_{n+1}(m+1) - β_{n+1}(0) = Σ_{j≥1} c_j·(m+1)^j: an integer Horner
    # scheme over the common denominator that skips c_0
    cs = bernoulli_polynomial(n + 1).coeffs
    den = lcm(*[c._den for c in cs])
    acc = []
    for c in reversed(cs[1:]):
        _add_linear(acc, c._num, den // c._den)
        acc = [a * (m + 1) for a in acc]
    return _make(acc, den * (n + 1))


def _at_minus_one_direct(n: int) -> LambdaPoly:
    return eulerian_poly(n).eval_x(-1)


def _at_minus_one_bernoulli(n: int) -> LambdaPoly:
    if n == 0:
        return LambdaPoly((1,))
    beta = bernoulli_taps(n + 1)[n + 1]
    halved = beta.scale_lambda(Fraction(1, 2))
    return (2 ** (n + 1) * halved - beta) * Fraction(2 ** (n + 1), n + 1)


#: Every family's routes, default first, each with its private builder: a
#: table route's builder extends its rows in ``_ROWS``, a point route's
#: builder computes one value.
ROUTES = {
    "eulerian": {"recursion": _extend_recursion, "explicit": _extend_explicit,
                 "gf-recursion": _extend_gf_recursion},
    "bernoulli": {"egf-triangular": _extend_bernoulli},
    "stirling1": {"basis-conversion": _extend_stirling1},
    "stirling2": {"explicit": _extend_stirling2, "eulerian": _extend_stirling2_eulerian},
    "powersum": {"direct": _power_sum_direct, "eulerian": _power_sum_eulerian,
                 "bernoulli": _power_sum_bernoulli},
    "eulerian-at": {"direct": _at_minus_one_direct, "bernoulli": _at_minus_one_bernoulli},
}
_TABLE_FAMILIES = ("eulerian", "bernoulli", "stirling1", "stirling2")

#: Each table route's rows as far as any call has asked, per (family, route).
#: A route only ever extends its own rows, so no route answers for another.
_ROWS: Dict[Tuple[str, str], List[tuple]] = {
    (family, route): [] for family in _TABLE_FAMILIES for route in ROUTES[family]
}
#: β_n(x) per n already asked for.
_BERNOULLI_POLY: Dict[int, XLPoly] = {}
#: Per n, the ``direct`` power sums Σ_{k≤m}(k)_{n,λ} for m = 0, 1, ... as
#: far as any call has asked: a column of running sums.
_POWER_SUMS: Dict[int, List[LambdaPoly]] = {}
#: A_n(-1) per (route, n) already asked for.
_AT_MINUS_ONE: Dict[Tuple[str, int], LambdaPoly] = {}


def _default(family: str) -> str:
    return next(iter(ROUTES[family]))


def _route(family: str, route: str):
    """The builder of ``route``; ValueError if ``family`` has no such route."""
    routes = ROUTES[family]
    try:
        return routes[route]
    except (KeyError, TypeError):  # TypeError: an unhashable route
        raise ValueError(f"unknown route {route!r}, expected one of {tuple(routes)}") from None


def _rows(family: str, route: str, max_n: int) -> List[tuple]:
    """The memo of a table route, extended to hold at least rows 0..max_n."""
    extend = _route(family, route)
    rows = _ROWS[family, route]
    if len(rows) <= max_n:
        extend(rows, max_n)
    return rows


def _clear_memos() -> None:
    """Forget every memoized builder value: the rows of every table route,
    the Bernoulli polynomials, the power-sum columns, the values of
    A_n(-1), the Bernoulli taps past β_0, the falling factorials and the
    descent distributions."""
    for rows in _ROWS.values():
        rows.clear()
    _BERNOULLI_POLY.clear()
    _POWER_SUMS.clear()
    _AT_MINUS_ONE.clear()
    del _BERNOULLI[1:]
    _FALLING.clear()
    _DESCENTS.clear()


def route_rows(family: str, max_n: int, route: str) -> Tuple[tuple, ...]:
    """Rows 0..max_n of a table family (``eulerian``, ``bernoulli``,
    ``stirling1``, ``stirling2``) by the chosen route, from the memo."""
    _check_nonneg(max_n=max_n)
    if family not in _TABLE_FAMILIES:
        raise ValueError(f"unknown table family {family!r}, expected one of {_TABLE_FAMILIES}")
    return tuple(_rows(family, route, max_n)[: max_n + 1])


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


def eulerian_table(max_n: int, route: str = _default("eulerian")) -> EulerianTable:
    """The triangle 0..max_n by the chosen route.

    Rows are memoized per route and process: a smaller max_n slices the
    rows already built, a larger one continues the route from its last row.
    """
    _check_nonneg(max_n=max_n)
    return EulerianTable(max_n, route, tuple(_rows("eulerian", route, max_n)[: max_n + 1]))


def eulerian_poly(n: int, route: str = _default("eulerian")) -> XLPoly:
    """Degenerate Eulerian polynomial A_n(x) = Σ_k A(n,k)·x^k.

    Each route's row n is the coefficient list; 'gf-recursion' builds its
    rows as the polynomials of the generating-function recursion, without
    touching the numbers of the other routes.
    """
    _check_nonneg(n=n)
    return XLPoly(eulerian_table(n, route).row(n))


def eulerian_at_minus_one(n: int, route: str = _default("eulerian-at")) -> LambdaPoly:
    """The value A_n(-1), i.e. the alternating sum Σ_k (-1)^k A(n,k).

    route 'direct' evaluates the Eulerian polynomial at x = -1; route
    'bernoulli' uses the closed form through the Bernoulli numbers,

        A_n(-1) = 2^{n+1}·(2^{n+1}·β_{n+1,λ/2} - β_{n+1,λ})/(n+1),  n ≥ 1

    which exercises the λ -> λ/2 substitution. Memoized per (route, n)
    and process.
    """
    _check_nonneg(n=n)
    build = _route("eulerian-at", route)
    value = _AT_MINUS_ONE.get((route, n))
    if value is None:
        value = _AT_MINUS_ONE[route, n] = build(n)
    return value


def bernoulli_polynomial(n: int) -> XLPoly:
    """Degenerate Bernoulli polynomial β_n(x) = Σ_j C(n,j)·β_{n-j}·(x)_{j,λ}.

    A Horner scheme in the falling basis, since (x)_{j+1,λ} = (x)_{j,λ}·(x-jλ):

        acc <- acc·(x - jλ) + C(n,j)·β_{n-j},   j = n-1 .. 0,

    from acc = β_0 = 1, on int numerator lists (one per x-coefficient) over
    the lcm D of the denominators of β_0..β_n; each step multiplies by
    (x - jλ) with ``algebra._times_x_minus_lambda``. Memoized per n and
    process; the taps are read on every call, memo hit or not, so each
    call reaches the egf solve it is built from.
    """
    _check_nonneg(n=n)
    beta = bernoulli_taps(n)
    poly = _BERNOULLI_POLY.get(n)
    if poly is None:
        den = lcm(*[b._den for b in beta])
        acc = [[den]]  # β_0 = 1
        for j in range(n - 1, -1, -1):
            acc = _times_x_minus_lambda(acc, j)
            b = beta[n - j]
            _add_linear(acc[0], b._num, comb(n, j) * (den // b._den))
        poly = _BERNOULLI_POLY[n] = _xl([_make(c, den) for c in acc])
    return poly


def stirling2_degenerate(n: int, k: int) -> LambdaPoly:
    """Degenerate Stirling number of the second kind {n k}, from the rows
    of the ``explicit`` route. Total in (n,k): zero for k > n."""
    _check_nonneg(n=n, k=k)
    if k > n:
        return LambdaPoly()
    return _rows("stirling2", "explicit", n)[n][k]


def stirling2_from_eulerian(n: int, k: int) -> LambdaPoly:
    """{n k} from the rows of the ``eulerian`` route of ``stirling2``,

        {n k} = (1/k!)·Σ_{j=0}^{n} A_{-λ}(n,j)·C(j, n-k).

    The Eulerian triangle is read on every call, memo hit or not, so each
    call reaches the rows it is built from.
    """
    _check_nonneg(n=n, k=k)
    if k > n:
        raise ValueError("route requires 0 <= k <= n")
    eulerian_table(n)
    return _rows("stirling2", "eulerian", n)[n][k]


def stirling1_row(n: int) -> List[LambdaPoly]:
    """Coefficients S1(n,0)..S1(n,n) of (x)_n in the basis (x)_{k,λ}, from
    the rows of the ``basis-conversion`` route; each call returns a new list."""
    _check_nonneg(n=n)
    return list(_rows("stirling1", "basis-conversion", n)[n])


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


def power_sum(m: int, n: int, route: str = _default("powersum")) -> LambdaPoly:
    """The degenerate power sum Σ_{k=1}^{m} (k)_{n,λ}, by three routes:

      direct     literal summation of the falling factorials, kept per n
                 as a column of running sums
      eulerian   Σ_{j=0}^{n} A_{-λ}(n,j)·C(m+j+1, n+1)
      bernoulli  (β_{n+1}(m+1) - β_{n+1})/(n+1)
    """
    if m < 1 or n < 1:
        raise ValueError("requires m >= 1 and n >= 1")
    return _route("powersum", route)(m, n)


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
