"""Truncated exponential generating functions over the exact rings.

An Egf of order N stores the taps a_0 .. a_N of f(t) = Σ a_n t^n / n!
(taps, not ordinary coefficients: every series here is naturally written
in EGF form and the product then becomes a binomial convolution, which
keeps all arithmetic inside the coefficient ring).

The taps may live in any ring that supports +, -, * and scalar
multiplication by int (LambdaPoly and XLPoly both do). The truncation
order is fixed per value; combining series of different orders is a
contract violation, not a silent re-truncation.

No series inversion is ever performed. The Bernoulli solve and the
generating-function check both stay inside the polynomial rings by
cross-multiplication: the Bernoulli taps come from a triangular solve of
B(t)·(e_λ(t)-1)/t = 1, and the Eulerian generating function is verified
through the residual S(t)·(x - e_{-λ}((x-1)t)) - (x-1), which must vanish
tap by tap.

There is one degenerate exponential, the paper's e_λ(u·t). The residual's
e_{-λ}((x-1)t) is its image under λ -> -λ, taken tap by tap.

The Bernoulli solve runs on int numerator lists over one common
denominator (``algebra._add_linear``) and builds one LambdaPoly per tap;
the Egf product and the residual use the ring operators.
"""

from __future__ import annotations

from math import comb, lcm
from typing import List, Sequence

from .algebra import LambdaPoly, X, _add_linear, _make, falling_factorial_degenerate

__all__ = [
    "Egf",
    "degenerate_exp",
    "bernoulli_taps",
    "gf_residual",
]


class Egf:
    """Truncated EGF: order N plus the taps a_0 .. a_N."""

    __slots__ = ("order", "taps")

    def __init__(self, order: int, taps: Sequence):
        if order < 0:
            raise ValueError("order must be >= 0")
        taps = tuple(taps)
        if len(taps) != order + 1:
            raise ValueError(f"expected {order + 1} taps, got {len(taps)}")
        self.order = order
        self.taps = taps

    @classmethod
    def constant(cls, c, order: int) -> "Egf":
        """The series c + 0·t + ... truncated at the given order."""
        zero = c * 0
        return cls(order, (c,) + (zero,) * order)

    def is_zero(self) -> bool:
        return not any(self.taps)

    def _check_order(self, other: "Egf"):
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, Egf):
            return NotImplemented
        self._check_order(other)
        return Egf(self.order, tuple(a + b for a, b in zip(self.taps, other.taps)))

    def __sub__(self, other):
        if not isinstance(other, Egf):
            return NotImplemented
        self._check_order(other)
        return Egf(self.order, tuple(a - b for a, b in zip(self.taps, other.taps)))

    def __mul__(self, other):
        """Product of two truncated EGFs: tap_n = Σ_k C(n,k)·a_k·b_{n-k}."""
        if not isinstance(other, Egf):
            return NotImplemented
        self._check_order(other)
        taps = []
        for n in range(self.order + 1):
            acc = self.taps[0] * other.taps[n]
            for k in range(1, n + 1):
                acc = acc + comb(n, k) * (self.taps[k] * other.taps[n - k])
            taps.append(acc)
        return Egf(self.order, taps)

    def __eq__(self, other):
        if not isinstance(other, Egf):
            return NotImplemented
        return self.order == other.order and self.taps == other.taps

    def __hash__(self):
        return hash((self.order, self.taps))

    def __repr__(self):
        return f"Egf(order={self.order}, taps={list(self.taps)!r})"


def degenerate_exp(u, order: int) -> Egf:
    """The series e_λ(u·t), tap_n = (1)_{n,λ}·u^n.

    ``u`` may be an XLPoly (e.g. x-1) or a rational. The argument-scaling
    form does NOT satisfy the exponential law: e_λ(u·t)·e_λ(v·t) differs
    from e_λ((u+v)·t) for λ ≠ 0.
    """
    taps = []
    upow = u**0
    for n in range(order + 1):
        taps.append(upow * falling_factorial_degenerate(1, n))
        if n < order:
            upow = upow * u
    return Egf(order, taps)


#: β_{0,λ}, β_{1,λ}, ... as far as any call has asked, extended in place.
_BERNOULLI: List[LambdaPoly] = [LambdaPoly((1,))]


def bernoulli_taps(order: int) -> List[LambdaPoly]:
    """Degenerate Bernoulli numbers β_{0,λ} .. β_{N,λ} by triangular solve.

    B(t)·(e_λ(t)-1)/t = 1, where (e_λ(t)-1)/t has tap_n = (1)_{n+1,λ}/(n+1),
    so β_0 = 1 and for n ≥ 1, with C(n,k)/(n-k+1) = C(n+1,k)/(n+1):

        β_n = -1/(n+1) · Σ_{k=0}^{n-1} C(n+1,k) · β_k · (1)_{n-k+1,λ}

    Since (1)_{j+1,λ} = (1)_{j,λ}·(1 - jλ), the sum is a Horner scheme,

        acc <- acc·(1 - (n-k+1)λ) + C(n+1,k)·β_k,   k = 0 .. n-1,

    times (1)_{2,λ} = 1 - λ at the end. It runs on int numerators over the
    lcm of the known taps' denominators, one canonical tap per n.

    The solved taps are kept per process: a larger order continues the
    solve from the last kept tap. Each call returns a new list.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    beta = _BERNOULLI
    for n in range(len(beta), order + 1):
        den = lcm(*[b._den for b in beta])
        acc = []
        for k, b in enumerate(beta):
            if k:
                acc = _add_linear([], acc, 1, k - n - 1)
            _add_linear(acc, b._num, comb(n + 1, k) * (den // b._den))
        acc = _add_linear([], acc, 1, -1)
        beta.append(_make([-c for c in acc], den * (n + 1)))
    return beta[: order + 1]


def gf_residual(n_max: int) -> Egf:
    """Residual of the Eulerian generating function, truncated at n_max.

    Computes S(t)·(x - e_{-λ}((x-1)t)) - (x-1) over Q[λ][x], where the
    taps of S are the degenerate Eulerian polynomials. The generating
    function identity holds iff every tap of the result is zero.
    """
    from .sequences import eulerian_poly  # deferred: sequences imports egf

    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    s = Egf(n_max, tuple(eulerian_poly(n) for n in range(n_max + 1)))
    # e_{-λ}((x-1)t): (x-1)^n carries no λ, so λ -> -λ acts on (1)_{n,λ} alone
    e = Egf(n_max, tuple(tap.scale_lambda(-1) for tap in degenerate_exp(X - 1, n_max).taps))
    return s * (Egf.constant(X, n_max) - e) - Egf.constant(X - 1, n_max)
