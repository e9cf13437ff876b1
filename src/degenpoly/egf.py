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
nested Horner scheme in (x-1) on int numerator lists
(``algebra._times_x_minus_one``), and must vanish.
"""

from __future__ import annotations

from math import comb, lcm
from typing import List, Sequence, Tuple

from .algebra import LambdaPoly, XLPoly, _add_linear, _grown, _make, _times_x_minus_one, _xl

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

    from acc = A_0, on int numerator lists over the lcm D of the row
    denominators, one canonical XLPoly per tap.
    """
    den = lcm(*[c._den for row in rows for c in row])
    taps = []
    for n, row in enumerate(rows):
        acc = [[]]
        for k in range(n + 1):
            if k:
                acc = _times_x_minus_one(acc, n - k)
            c = comb(n, k)
            for a, entry in zip(acc, rows[k]):
                _add_linear(a, entry._num, c * (den // entry._den))
        out = [[-v for v in a] for a in acc] + [[]]
        for a, entry in zip(out[1:], row):  # x·A_n
            _add_linear(a, entry._num, den // entry._den)
        if not n:  # -(x - 1)
            _add_linear(out[0], (1,), den)
            _add_linear(out[1], (1,), -den)
        taps.append(_xl([_make(a, den) for a in out]))
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
