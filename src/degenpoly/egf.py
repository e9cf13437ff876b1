"""The two computations the package takes from exponential generating
functions, each kept inside the polynomial rings by cross-multiplication
rather than by series inversion.

The Bernoulli taps come from a triangular solve of B(t)·(e_λ(t)-1)/t = 1,
on int numerator lists over one common denominator
(``algebra._add_linear``), one LambdaPoly per tap. The solve is the
builder of the ``egf-triangular`` route of ``bernoulli``: its rows (β_n,)
are the one store of the taps.

The Eulerian generating function (Prop. 2.1) is verified through the
residual S(t)·(x - e_{-λ}((x-1)t)) - (x-1), where the taps of S are the
degenerate Eulerian polynomials and e_{-λ}((x-1)t) has taps
(1)_{n,-λ}·(x-1)^n. Each tap of the residual is computed directly and
must vanish. Tap n is (x-1)·(A_n - G_n - [n=0]), where G_n is the sum
of the recursion that Thm. 2.3 draws from the generating function: all
of its terms but A_n itself hold a factor x - 1. So the two statements
are checked through one nested Horner scheme in (x-1), the packed kernel
``algebra._horner_x_minus_one``, in the call that the ``gf-recursion``
route makes, on the rows of the ``recursion`` route. Every Eulerian
number enters the scheme of each later tap; each is packed once and
each tap unpacked once. The rows are the route's own, over 1 and with
n + 1 entries in row n, so they are packed as they are.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb, lcm
from operator import sub

from .algebra import (LambdaPoly, XLPoly, _add_linear, _grown, _horner_bound, _horner_x_minus_one, _make,
                      _norm, _pack, _slot, _unpack, _xl)

__all__ = [
    "bernoulli_taps",
    "gf_residual",
]


def bernoulli_taps(order: int) -> list[LambdaPoly]:
    """Degenerate Bernoulli numbers β_{0,λ} .. β_{N,λ} by triangular solve.

    B(t)·(e_λ(t)-1)/t = 1, where (e_λ(t)-1)/t has tap_n = (1)_{n+1,λ}/(n+1),
    so β_0 = 1 and for n ≥ 1, with C(n,k)/(n-k+1) = C(n+1,k)/(n+1):

        β_n = -1/(n+1) · Σ_{k=0}^{n-1} C(n+1,k) · β_k · (1)_{n-k+1,λ}

    Since (1)_{j+1,λ} = (1)_{j,λ}·(1 - jλ), the sum is a Horner scheme,

        acc <- acc·(1 - (n-k+1)λ) + C(n+1,k)·β_k,   k = 0 .. n-1,

    times (1)_{2,λ} = 1 - λ at the end. It runs on int numerators over the
    lcm of the known taps' denominators, one canonical tap per n.

    The solved taps are the rows of the ``egf-triangular`` route of
    ``bernoulli``, kept per process in the builder memos of ``algebra``: a
    larger order continues the solve from the last kept row. Each call
    returns a new list.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return [b for (b,) in _grown(("bernoulli", "egf-triangular"), order, _extend_taps)[: order + 1]]


def _extend_taps(rows: list[tuple], order: int) -> None:
    """Append the rows (β_n,) for n = len(rows) .. order, from β_0 = 1."""
    if not rows:
        rows.append((LambdaPoly((1,)),))
    for n in range(len(rows), order + 1):
        den = lcm(*[b._den for (b,) in rows])
        acc = []
        for k, (b,) in enumerate(rows):
            if k:
                acc = _add_linear([], acc, 1, k - n - 1)
            _add_linear(acc, b._num, comb(n + 1, k) * (den // b._den))
        acc = _add_linear([], acc, 1, -1)
        rows.append((_make([-c for c in acc], den * (n + 1)),))


def _residual_taps(rows: Sequence[Sequence[LambdaPoly]]) -> tuple[XLPoly, ...]:
    """The residual taps of the Eulerian polynomials whose coefficient rows
    are rows[0..N], row n the n + 1 entries A(n,0..n) in Z[λ]:

        tap_n = x·A_n(x) - Σ_{k≤n} C(n,k)·(1)_{n-k,-λ}·A_k(x)·(x-1)^{n-k} - [n=0]·(x-1)

    The term k = n of the sum is A_n and each other term holds a factor
    x - 1, so tap_n = (x-1)·(A_n - G_n - [n=0]) with

        G_n(x) = Σ_{k<n} C(n,k)·A_k(x)·(1)_{n-k,-λ}·(x-1)^{n-k-1},

    the sum of the ``gf-recursion`` route, taken by the same call of
    ``algebra._horner_x_minus_one``. Every entry is packed once per call;
    d = A_n - G_n - [n=0] is formed packed, and each coefficient
    d_{m-1} - d_m of (x-1)·d is unpacked once, one canonical XLPoly per
    tap. The slot holds 2·(``algebra._horner_bound`` + ‖A_n‖ + [n=0]), a
    bound on every such coefficient.
    """
    norms = [_norm(row) for row in rows]
    S = _slot(2 * max((_horner_bound(norms, n) + norms[n] + int(n == 0) for n in range(len(rows))),
                      default=0))
    packed = [[_pack(c._num, S) for c in row] for row in rows]
    taps = []
    for n, a in enumerate(packed):
        # G_n has x-degree n - 1; its x-coefficient n is 0, less 1 at n = 0
        d = list(map(sub, a, _horner_x_minus_one(packed, n, S) + [int(n == 0)]))
        taps.append(_xl([_make(_unpack(c, S), 1) for c in map(sub, [0] + d, d + [0])]))
    return tuple(taps)


def gf_residual(n_max: int) -> tuple[XLPoly, ...]:
    """Taps 0..n_max of the Eulerian generating-function residual

        S(t)·(x - e_{-λ}((x-1)t)) - (x-1)

    over Q[λ][x], on the rows of the ``recursion`` route as it builds
    them. The generating function identity holds iff every tap is zero.
    """
    from .sequences import eulerian_table  # deferred: sequences imports egf

    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _residual_taps(eulerian_table(n_max).rows)
