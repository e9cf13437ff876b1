"""The two computations the package takes from exponential generating
functions, each kept inside the polynomial rings by cross-multiplication
rather than by series inversion.

The Bernoulli taps come from a triangular solve of B(t)·(e_λ(t)-1)/t = 1,
on int numerator lists over one common denominator
(``algebra._add_linear``), one LambdaPoly per tap.

The Eulerian generating function (Prop. 2.1) is verified through the
residual S(t)·(x - e_{-λ}((x-1)t)) - (x-1), where the taps of S are the
degenerate Eulerian polynomials and e_{-λ}((x-1)t) has taps
(1)_{n,-λ}·(x-1)^n. Each tap of the residual is computed directly, as a
nested Horner scheme in (x-1), and must vanish. Every Eulerian number
enters the scheme of each later tap, so the scheme runs on the packed
kernel ``algebra._horner_x_minus_one``, each number packed once and each
tap unpacked once.
"""

from __future__ import annotations

from math import comb, lcm
from typing import List, Sequence, Tuple

from .algebra import (LambdaPoly, XLPoly, _add_linear, _grown, _horner_bound, _horner_x_minus_one, _make,
                      _norm, _pack, _slot, _unpack, _xl)

__all__ = [
    "bernoulli_taps",
    "gf_residual",
]


def bernoulli_taps(order: int) -> List[LambdaPoly]:
    """Degenerate Bernoulli numbers β_{0,λ} .. β_{N,λ} by triangular solve.

    B(t)·(e_λ(t)-1)/t = 1, where (e_λ(t)-1)/t has tap_n = (1)_{n+1,λ}/(n+1),
    so β_0 = 1 and for n ≥ 1, with C(n,k)/(n-k+1) = C(n+1,k)/(n+1):

        β_n = -1/(n+1) · Σ_{k=0}^{n-1} C(n+1,k) · β_k · (1)_{n-k+1,λ}

    Since (1)_{j+1,λ} = (1)_{j,λ}·(1 - jλ), the sum is a Horner scheme,

        acc <- acc·(1 - (n-k+1)λ) + C(n+1,k)·β_k,   k = 0 .. n-1,

    times (1)_{2,λ} = 1 - λ at the end. It runs on int numerators over the
    lcm of the known taps' denominators, one canonical tap per n.

    The solved taps are kept per process in the builder memos of
    ``algebra``: a larger order continues the solve from the last kept
    tap. Each call returns a new list.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return _grown(("bernoulli-taps",), order, _extend_taps)[: order + 1]


def _extend_taps(beta: List[LambdaPoly], order: int) -> None:
    """Append β_{len(beta)} .. β_order to the solved taps, from β_0 = 1."""
    if not beta:
        beta.append(LambdaPoly((1,)))
    for n in range(len(beta), order + 1):
        den = lcm(*[b._den for b in beta])
        acc = []
        for k, b in enumerate(beta):
            if k:
                acc = _add_linear([], acc, 1, k - n - 1)
            _add_linear(acc, b._num, comb(n + 1, k) * (den // b._den))
        acc = _add_linear([], acc, 1, -1)
        beta.append(_make([-c for c in acc], den * (n + 1)))


def _residual_taps(rows: Sequence[Sequence[LambdaPoly]]) -> Tuple[XLPoly, ...]:
    """The residual taps of the Eulerian polynomials whose coefficient rows
    are rows[0..N]:

        tap_n = x·A_n(x) - Σ_{k≤n} C(n,k)·(1)_{n-k,-λ}·A_k(x)·(x-1)^{n-k} - [n=0]·(x-1)

    From term k+1 to term k the factor (1)_{n-k,-λ}·(x-1)^{n-k} gains one
    factor (1 + (n-k-1)λ)(x-1), so the sum is a nested Horner scheme,

        acc <- acc·(1 + (n-k)λ)·(x-1) + C(n,k)·A_k(x),   k = 1 .. n,

    from acc = A_0, over the lcm D of the row denominators, one canonical
    XLPoly per tap: ``algebra._horner_x_minus_one`` with top = n, as in
    the ``gf-recursion`` route. Every entry A(k,m), m ≤ k, is packed once
    per call, in one slot that holds every tap's numerators before
    ``_make`` reduces them, from ``algebra._horner_bound`` plus what x·A_n
    and x - 1 add; each tap is unpacked once.
    """
    den = lcm(*[c._den for row in rows for c in row])
    # row k enters as its entries 0..k, each over D
    rows = [row[:k + 1] for k, row in enumerate(rows)]
    norms = [_norm(row, den) for row in rows]
    # x·A_n and, at n = 0, x - 1 are added to the scheme's sum
    S = _slot(max((_horner_bound(norms, n, n) + norms[n] + (den if n == 0 else 0) for n in range(len(rows))),
                  default=0))
    packed = [[_pack(c._num, S) * (den // c._den) for c in row] + [0] * (k + 1 - len(row))
              for k, row in enumerate(rows)]
    taps = []
    for n in range(len(rows)):
        out = [-a for a in _horner_x_minus_one(packed, n, n, S)] + [0]
        for m, a in enumerate(packed[n], 1):  # x·A_n
            out[m] += a
        if not n:  # -(x - 1)
            out[0] += den
            out[1] -= den
        taps.append(_xl([_make(_unpack(a, S), den) for a in out]))
    return tuple(taps)


def gf_residual(n_max: int) -> Tuple[XLPoly, ...]:
    """Taps 0..n_max of the Eulerian generating-function residual

        S(t)·(x - e_{-λ}((x-1)t)) - (x-1)

    over Q[λ][x], on the rows of the ``recursion`` route. The generating
    function identity holds iff every tap is zero.
    """
    from .sequences import eulerian_table  # deferred: sequences imports egf

    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _residual_taps(eulerian_table(n_max).rows)
