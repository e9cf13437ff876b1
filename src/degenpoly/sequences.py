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
to its private builder; one check refuses an unknown route. Every
memoized value lives per process in the one store ``algebra._MEMOS``,
and ``_clear_memos`` empties it. The rows of every table route are kept
under the key (family, route): a builder appends complete rows by its
route's own formula from the first row not yet built, so a smaller n is
sliced, a larger one continues the route and nothing is rebuilt. The
builder of the ``bernoulli`` route is the triangular solve of ``egf``,
whose rows (β_n,) are the taps that ``egf.bernoulli_taps`` returns. A
route reads another route's rows only where its formula is stated over
them (``stirling2`` by ``eulerian`` sums the ``recursion`` triangle). The
store also keeps β_n(x) per n, A_n(-1) per (route, n) (a memo only ever
keys on a route ``_route`` has accepted), and the ``direct`` power-sum
route's column per n: the prefix sums Σ_{k≤m}(k)_{n,λ} for m = 0, 1,
..., each the last plus one falling factorial, so a larger m extends
the column and a smaller one is a lookup. The ``eulerian`` and
``bernoulli`` power-sum routes keep one value per (route, n, m), under
("powersum", route, n, m); each call, memo hit or not, still reads the
memoized Eulerian row n or β_{n+1}(x) it is built from. The memos
outlive a CLI command, so later commands in the process reuse them; as
only complete rows, sums and values are stored, a command that
fails midway leaves nothing partial behind.

Every builder but one works on int numerators and builds one LambdaPoly
(or one XLPoly of them) per value, over 1 or over one known denominator.
Most sum numerator lists with ``algebra._add_linear``: the
``basis-conversion`` route of ``stirling1`` (a Newton division by x,
x - λ, x - 2λ, ...), the ``eulerian`` route of ``stirling2``,
``eulerian_from_stirling2`` (one cell, over the memoized ``explicit``
Stirling row n, as int multiples of the j!·{n j} in Z[λ]), the three
power-sum routes and ``bernoulli_polynomial`` (a Horner scheme in the
falling basis with ``algebra._times_x_minus_lambda``). The ``recursion``
route takes each cell in one list comprehension over its two parents'
numerators, padded once per row. Four run on the packed kernels of
``algebra`` instead, because there each value enters many sums: the
``gf-recursion`` route, a nested Horner scheme in (x-1) in which a row
enters the scheme of every later row (``algebra._horner_x_minus_one``,
in the call that the generating-function residual of ``egf`` makes for
the same sum),
``worpitzky_lhs``, in which an Eulerian number enters every
x-coefficient (``algebra._packed_sums``), and the ``explicit`` routes of
``eulerian`` and ``stirling2``, in which a falling factorial (j)_{n,λ}
enters every cell of row n (``algebra._falling_sums``, which carries the
row of falling factorials packed from one n to the next, so these routes
read no memoized falling factorial). The explicit sum of the Eulerian
numbers has one body, ``_explicit_sums``: the ``explicit`` rows, one
cell ``eulerian_explicit(n, k)`` and the cells beyond the triangle that
the verification suite asks for are each one ``_falling_sums`` call on
its column rule. Packing a value costs two to three times as much as
adding it to a list once, so the builders whose values each enter only
a few sums stay on lists, such as the ``recursion`` route (two parents
per cell). The
``direct`` route of ``eulerian_at_minus_one`` evaluates A_n(-1) with
``XLPoly.eval_x``, itself an integer Horner scheme. Its ``bernoulli``
route uses the ring operators on purpose: it exercises the λ -> λ/2
substitution.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, lcm

from .algebra import (
    _MEMOS,
    _add_linear,
    _built,
    _falling_sums,
    _grown,
    _horner_bound,
    _horner_x_minus_one,
    _make,
    _negate_lambda,
    _norm,
    _pack,
    _packed_sums,
    _slot,
    _times_x_minus_lambda,
    _unpack,
    _x_falling,
    _xl,
    LambdaPoly,
    XLPoly,
    falling_factorial_degenerate,
)
from .egf import _extend_taps, bernoulli_taps

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


def eulerian_explicit(n: int, k: int) -> LambdaPoly:
    """Degenerate Eulerian number by the explicit alternating sum

        A(n,k) = Σ_{i=0}^{k} C(n+1,i)·(-1)^i·(k-i+1)_{n,λ}

    Total in (n,k): for k > n the sum itself collapses to the zero
    polynomial (an n-th degree sequence differenced more than n times),
    which is asserted by the verification suite rather than special-cased.
    One cell is one ``_explicit_sums`` call, the body of the ``explicit``
    rows, and reads no memo.
    """
    _check_nonneg(n=n, k=k)
    return _make(_explicit_sums(n, [[k]])[0][0], 1)


def _explicit_sums(start: int, ks: list) -> list:
    """The int numerators of A(n,k) by the explicit sum of
    ``eulerian_explicit``, for each n from start and each k in
    ks[n - start] (none empty), in one ``algebra._falling_sums`` call: the
    coefficient of (j)_{n,λ} is (-1)^i·C(n+1,i) with i = k+1-j, for
    j = 1..k+1. C(n+1,i) is 0 for i > n+1, so a cell beyond the triangle
    needs no case of its own."""
    columns = []
    for n, row in enumerate(ks, start):
        signed = [(-1) ** i * comb(n + 1, i) for i in range(max(row) + 2)]
        columns.append([[0] + signed[k::-1] for k in row])
    return _falling_sums(start, columns)


def _extend_recursion(rows: list[tuple], max_n: int) -> None:
    """Eulerian rows by the two-term recursion

        A(n,k) = ((n-k)+(n-1)λ)·A(n-1,k-1) + (k+1-(n-1)λ)·A(n-1,k)

    with A(0,0) = 1 and zero outside the triangle. Every entry lies in
    Z[λ], so each cell is one pass over the int numerators of its parents
    p = A(n-1,k-1) and q = A(n-1,k), in the form

        A(n,k) = (n-k)·p + (k+1)·q + (n-1)λ·(p - q).

    A(n,k) has λ-degree at most n-1, so each parent of row n is padded
    once per row to n numerators, as it is and shifted up by one power.
    """
    if not rows:
        rows.append((LambdaPoly((1,)),))
    for n in range(len(rows), max_n + 1):
        m, zeros = n - 1, (0,) * n
        # A(n-1,-1) and A(n-1,n) are zero: one padded zero at either end
        pads = [zeros] + [c._num + zeros[len(c._num):] for c in rows[-1]] + [zeros]
        ups = [(0,) + p[:-1] for p in pads]
        rows.append(tuple(
            _make([(n - k) * a + (k + 1) * b + m * (c - d)
                   for a, b, c, d in zip(pads[k], pads[k + 1], ups[k], ups[k + 1])], 1)
            for k in range(n + 1)))


def _extend_explicit(rows: list[tuple], max_n: int) -> None:
    """Eulerian rows by the explicit sum of ``eulerian_explicit``, k = 0..n
    of each row n in one ``_explicit_sums`` call."""
    start = len(rows)
    for row in _explicit_sums(start, [range(n + 1) for n in range(start, max_n + 1)]):
        rows.append(tuple(_make(num, 1) for num in row))


def _extend_gf_recursion(rows: list[tuple], max_n: int) -> None:
    """Eulerian rows as the coefficients of A_n(x), built by the
    generating-function recursion

        A_n(x) = Σ_{i=0}^{n-1} C(n,i)·A_i(x)·(1)_{n-i,-λ}·(x-1)^{n-i-1}

    From term i+1 to term i the factor (1)_{n-i,-λ}·(x-1)^{n-i-1} gains one
    factor (1 + (n-i-1)λ)(x-1), so the sum is a nested Horner scheme,

        acc <- acc·(1 + (n-i)λ)·(x-1) + C(n,i)·A_i(x),   i = 0 .. n-1,

    from acc = 0, with no λ-polynomial product: the packed kernel
    ``algebra._horner_x_minus_one``, in the same call by which the
    generating-function residual of ``egf`` takes this sum. One slot S
    serves every row of a call, from ``algebra._horner_bound``: the rows
    already built are packed once, a new row's packed sums are kept as
    they are, and each row is unpacked once, when it is stored. The sum
    has x-degree n-1, so row n ends in a zero A(n,n).
    """
    if not rows:
        rows.append((LambdaPoly((1,)),))
    start = len(rows)
    # the rows of this call count with their bounds, the others with their norms
    norms = [_norm(row) for row in rows]
    for n in range(start, max_n + 1):
        norms.append(_horner_bound(norms, n))
    S = _slot(max(norms[start:], default=0))
    packed = [[_pack(c._num, S) for c in row] for row in rows]
    zero = _make([], 1)
    for n in range(start, max_n + 1):
        acc = _horner_x_minus_one(packed, n, S)
        packed.append(acc + [0])
        rows.append(tuple(_make(_unpack(a, S), 1) for a in acc) + (zero,))


def _extend_stirling1(rows: list[tuple], max_n: int) -> None:
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


def _extend_stirling2(rows: list[tuple], max_n: int) -> None:
    """Rows {n 0}..{n n} by the explicit sum

        {n k} = ((-1)^k/k!)·Σ_{j=0}^{k} (-1)^j·C(k,j)·(j)_{n,λ}

    Row n sums k!·{n k} on the packed kernel ``algebra._falling_sums``;
    the coefficients of a k do not depend on n.
    """
    start = len(rows)
    signed = [[(-1) ** (k - j) * comb(k, j) for j in range(k + 1)] for k in range(max_n + 1)]
    sums = _falling_sums(start, [signed[:n + 1] for n in range(start, max_n + 1)])
    for row in sums:
        rows.append(tuple(_make(num, factorial(k)) for k, num in enumerate(row)))


def _extend_stirling2_eulerian(rows: list[tuple], max_n: int) -> None:
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


def _extend_power_sums(column: list[LambdaPoly], m: int, n: int) -> None:
    """The running sums Σ_{k≤j}(k)_{n,λ} for j = len(column) .. m, entry j
    entry j-1 plus (j)_{n,λ}, from the empty sum."""
    if not column:
        column.append(_make([], 1))
    for k in range(len(column), m + 1):
        acc = _add_linear(list(column[-1]._num), falling_factorial_degenerate(k, n)._num, 1)
        column.append(_make(acc, 1))


def _power_sum_direct(m: int, n: int) -> LambdaPoly:
    return _grown(("powersum", "direct", n), m, _extend_power_sums, n)[m]


def _power_sum_eulerian(m: int, n: int) -> LambdaPoly:
    # the row is read on every call, memo hit or not
    return _built(("powersum", "eulerian", n, m), _eulerian_sum, m, n, eulerian_table(n).row(n))


def _eulerian_sum(m: int, n: int, row: tuple[LambdaPoly, ...]) -> LambdaPoly:
    acc = []
    for j in range(n + 1):
        _add_linear(acc, row[j]._num, comb(m + j + 1, n + 1))
    return _make(_negate_lambda(acc), 1)


def _power_sum_bernoulli(m: int, n: int) -> LambdaPoly:
    # β_{n+1}(x) is read on every call, memo hit or not
    return _built(("powersum", "bernoulli", n, m), _bernoulli_sum, m, n, bernoulli_polynomial(n + 1))


def _bernoulli_sum(m: int, n: int, beta: XLPoly) -> LambdaPoly:
    # β_{n+1}(m+1) - β_{n+1}(0) = Σ_{j≥1} c_j·(m+1)^j, summed over the
    # common denominator with a running power of m+1; c_0 is skipped
    cs = beta.coeffs
    den = lcm(*[c._den for c in cs])
    acc, power = [], 1
    for c in cs[1:]:
        power *= m + 1
        _add_linear(acc, c._num, power * (den // c._den))
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
#: table route's builder extends its rows, kept under the key (family,
#: route) of ``algebra._MEMOS``; a point route's builder computes one value.
ROUTES = {
    "eulerian": {"recursion": _extend_recursion, "explicit": _extend_explicit,
                 "gf-recursion": _extend_gf_recursion},
    "bernoulli": {"egf-triangular": _extend_taps},
    "stirling1": {"basis-conversion": _extend_stirling1},
    "stirling2": {"explicit": _extend_stirling2, "eulerian": _extend_stirling2_eulerian},
    "powersum": {"direct": _power_sum_direct, "eulerian": _power_sum_eulerian,
                 "bernoulli": _power_sum_bernoulli},
    "eulerian-at": {"direct": _at_minus_one_direct, "bernoulli": _at_minus_one_bernoulli},
}
_TABLE_FAMILIES = ("eulerian", "bernoulli", "stirling1", "stirling2")


def _default(family: str) -> str:
    return next(iter(ROUTES[family]))


def _route(family: str, route: str):
    """The builder of ``route``; ValueError if ``family`` has no such route."""
    routes = ROUTES[family]
    try:
        return routes[route]
    except (KeyError, TypeError):  # TypeError: an unhashable route
        raise ValueError(f"unknown route {route!r}, expected one of {tuple(routes)}") from None


def _rows(family: str, route: str, max_n: int) -> list[tuple]:
    """The rows of a table route, extended to hold at least rows 0..max_n.
    A route only ever extends its own rows, so no route answers for another."""
    return _grown((family, route), max_n, _route(family, route))


def _clear_memos() -> None:
    """Forget every memoized builder value of the package."""
    _MEMOS.clear()


def route_rows(family: str, max_n: int, route: str) -> tuple[tuple, ...]:
    """Rows 0..max_n of a table family (``eulerian``, ``bernoulli``,
    ``stirling1``, ``stirling2``) by the chosen route, from the memo."""
    _check_nonneg(max_n=max_n)
    if family not in _TABLE_FAMILIES:
        raise ValueError(f"unknown table family {family!r}, expected one of {_TABLE_FAMILIES}")
    return tuple(_rows(family, route, max_n)[: max_n + 1])


class EulerianTable(namedtuple("EulerianTable", ("max_n", "route", "rows"))):
    """Triangular table of degenerate Eulerian numbers, tagged by route."""

    __slots__ = ()

    def entry(self, n: int, k: int) -> LambdaPoly:
        """A(n,k); indices outside the triangle give the zero polynomial."""
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n out of table range 0..{self.max_n}: {n}")
        if 0 <= k <= n:
            return self.rows[n][k]
        return LambdaPoly()

    def row(self, n: int) -> tuple[LambdaPoly, ...]:
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
    return _built(("eulerian-at", route, n), _route("eulerian-at", route), n)


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
    return _built(("bernoulli-poly", n), _bernoulli_horner, n, bernoulli_taps(n))


def _bernoulli_horner(n: int, beta: list[LambdaPoly]) -> XLPoly:
    den = lcm(*[b._den for b in beta])
    acc = [[den]]  # β_0 = 1
    for j in range(n - 1, -1, -1):
        acc = _times_x_minus_lambda(acc, j)
        b = beta[n - j]
        _add_linear(acc[0], b._num, comb(n, j) * (den // b._den))
    return _xl([_make(c, den) for c in acc])


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


def stirling1_row(n: int) -> list[LambdaPoly]:
    """Coefficients S1(n,0)..S1(n,n) of (x)_n in the basis (x)_{k,λ}, from
    the rows of the ``basis-conversion`` route; each call returns a new list."""
    _check_nonneg(n=n)
    return list(_rows("stirling1", "basis-conversion", n)[n])


def eulerian_from_stirling2(n: int, k: int) -> LambdaPoly:
    """A(n,k-1) as a finite sum over second-kind Stirling numbers:

        A(n,k-1) = (-1)^k·Σ_{j=0}^{k} (-1)^j·C(n-j, n-k)·j!·{n j}

    summed on lists over row n of the ``explicit`` Stirling route, read
    once per call, with int coefficients over 1.
    """
    if n < 1 or not 1 <= k <= n:
        raise ValueError("requires n >= 1 and 1 <= k <= n")
    acc = []
    for j, v in enumerate(_rows("stirling2", "explicit", n)[n][:k + 1]):
        # j!·{n j} lies in Z[λ]: the row stores it over j!, so v._den divides j!
        c = comb(n - j, n - k) * (factorial(j) // v._den)
        _add_linear(acc, v._num, c if (k - j) % 2 == 0 else -c)
    return _make(acc, 1)


def power_sum(m: int, n: int, route: str = _default("powersum")) -> LambdaPoly:
    """The degenerate power sum Σ_{k=1}^{m} (k)_{n,λ}, by three routes:

      direct     literal summation of the falling factorials, kept per n
                 as a column of running sums
      eulerian   Σ_{j=0}^{n} A_{-λ}(n,j)·C(m+j+1, n+1)
      bernoulli  (β_{n+1}(m+1) - β_{n+1})/(n+1)

    Memoized per route, n and m and process: a repeated call returns the
    same object. The ``eulerian`` and ``bernoulli`` routes read Eulerian
    row n or β_{n+1}(x) on every call, memo hit or not.
    """
    if m < 1 or n < 1:
        raise ValueError("requires m >= 1 and n >= 1")
    return _route("powersum", route)(m, n)


def worpitzky_lhs(n: int) -> XLPoly:
    """Left side of the degenerate Worpitzky expansion,

        Σ_{k=0}^{n} C(x+k, n)·A_{-λ}(n,k)

    which the identity suite compares against (x)_{n,λ}. Each A(n,k)
    enters every x-coefficient, so the row is summed by
    ``algebra._packed_sums``: x-coefficient j is one sum of int multiples
    of the packed row, λ-negated and divided by n!.
    """
    _check_nonneg(n=n)
    row = eulerian_table(n).row(n)
    # x-coefficient j sums A(n,k) times the int coefficient of x^j in (x+k)_n
    cs, polys = _x_falling(0, n), []
    for k in range(n + 1):
        if k:  # (x+k)_n = (x+k-1)_n·(x+k)/(x+k-n): exact synthetic division
            q, carry = [0] * n, 0
            for j in range(n, 0, -1):
                carry = q[j - 1] = cs[j] - (k - n) * carry
            cs = _add_linear([], q, k, 1)
        polys.append(cs)
    sums = _packed_sums(list(zip(*polys)), [entry._num for entry in row])
    den = factorial(n)
    return _xl([_make(_negate_lambda(num), den) for num in sums])
