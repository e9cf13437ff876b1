"""Exact coefficient rings for the degenerate sequence families.

Everything is built over the rationals (`fractions.Fraction`) so every
identity in this package can be tested as an exact polynomial equality
instead of a floating-point approximation.

Two polynomial rings are provided, both with dense coefficient lists:

  LambdaPoly   polynomial in the deformation variable λ, coefficients in Q.
               Index i of ``coeffs`` is the coefficient of λ^i.
  XLPoly       polynomial in x whose coefficients are LambdaPoly values,
               i.e. an element of Q[λ][x]. Index j is the coefficient of x^j.

Canonical form: trailing zero coefficients are trimmed at construction, the
zero polynomial is the empty coefficient tuple, and every rational is kept
normalized by Fraction itself. Equality is therefore a plain tuple compare.

Values are immutable after construction; all operations return new values.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, Union

Scalar = Union[int, Fraction]

__all__ = [
    "LambdaPoly",
    "XLPoly",
    "LAM",
    "X",
    "falling_factorial_degenerate",
    "falling_factorial_classical",
    "binomial_poly",
]


def _trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _format_terms(pairs) -> str:
    """Join (coefficient, body) terms into '1 - 3λ + 2λ^2' style text.

    ``pairs`` yields (Fraction coefficient, term text without sign); a term
    text of '' stands for the bare coefficient (the constant term).
    """
    out = []
    for c, body in pairs:
        mag = abs(c)
        if body == "":
            text = str(mag)
        elif mag == 1:
            text = body
        elif mag.denominator == 1:
            text = f"{mag}{body}"
        else:
            text = f"({mag}){body}"
        if not out:
            out.append(text if c > 0 else "-" + text)
        else:
            out.append((" + " if c > 0 else " - ") + text)
    return "".join(out) if out else "0"


class LambdaPoly:
    """Polynomial in λ with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs = _trim([Fraction(c) for c in coeffs])

    @classmethod
    def constant(cls, c: Scalar) -> "LambdaPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "LambdaPoly":
        """The polynomial λ itself."""
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree in λ; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def constant_value(self) -> Fraction:
        """The value of a λ-free polynomial; raises if λ actually occurs."""
        if self.degree > 0:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff(0)

    def eval(self, v: Scalar) -> Fraction:
        """Exact Horner evaluation at λ = v."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def scale_lambda(self, s: Scalar) -> "LambdaPoly":
        """Substitute λ -> s·λ (coefficient of λ^i picks up a factor s^i)."""
        s = Fraction(s)
        return LambdaPoly(c * s**i for i, c in enumerate(self.coeffs))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LambdaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LambdaPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LambdaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LambdaPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return LambdaPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = LambdaPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        return hash(self.coeff(0)) if len(self.coeffs) <= 1 else hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"LambdaPoly({list(self.coeffs)!r})"

    def __str__(self):
        return _format_terms(
            (c, "" if i == 0 else ("λ" if i == 1 else f"λ^{i}"))
            for i, c in enumerate(self.coeffs)
            if c != 0
        )


class XLPoly:
    """Polynomial in x with LambdaPoly coefficients (the ring Q[λ][x])."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                c = LambdaPoly((c,))
            elif not isinstance(c, LambdaPoly):
                raise TypeError(f"bad x-coefficient: {c!r}")
            cs.append(c)
        self.coeffs = _trim(cs)

    @classmethod
    def constant(cls, c) -> "XLPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "XLPoly":
        """The polynomial x itself."""
        return cls((LambdaPoly(), LambdaPoly((1,))))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def x_degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lambda_degree(self) -> int:
        """Largest λ-degree over all x-coefficients; -1 for zero."""
        return max((c.degree for c in self.coeffs), default=-1)

    def coeff(self, j: int) -> LambdaPoly:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else LambdaPoly()

    def eval_x(self, v: Scalar) -> LambdaPoly:
        """Exact Horner evaluation at a rational x-value."""
        v = Fraction(v)
        acc = LambdaPoly()
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def eval_lambda(self, v: Scalar) -> "XLPoly":
        """Substitute a rational value for λ, leaving a λ-free XLPoly."""
        return XLPoly(c.eval(v) for c in self.coeffs)

    def scale_lambda(self, s: Scalar) -> "XLPoly":
        """Substitute λ -> s·λ in every x-coefficient."""
        return XLPoly(c.scale_lambda(s) for c in self.coeffs)

    def constant_value(self) -> LambdaPoly:
        """The value of an x-free polynomial; raises if x actually occurs."""
        if self.x_degree > 0:
            raise ValueError(f"not constant in x: {self}")
        return self.coeff(0)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, XLPoly):
            return other
        if isinstance(other, (int, Fraction, LambdaPoly)):
            return XLPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return XLPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return XLPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XLPoly()
        out = [LambdaPoly() for _ in range(len(a) + len(b) - 1)]
        for i, ca in enumerate(a):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return XLPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = XLPoly((LambdaPoly((1,)),))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # an x-free polynomial equals its coefficient, so it must hash like it
        return hash(self.coeff(0)) if len(self.coeffs) <= 1 else hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"XLPoly({list(self.coeffs)!r})"

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            body = "" if j == 0 else ("x" if j == 1 else f"x^{j}")
            if c.degree <= 0:
                parts.append((c.coeff(0), body))
            else:
                # λ genuinely occurs: parenthesize the whole coefficient.
                parts.append((Fraction(1), f"({c})" + body))
        return _format_terms(parts)


#: The variable λ as a LambdaPoly.
LAM = LambdaPoly.variable()
#: The variable x as an XLPoly.
X = XLPoly.variable()


#: (base)_{0,λ}, (base)_{1,λ}, ... per integer base and for X, each list
#: extended by one factor per new j and never rebuilt.
_FALLING: Dict[object, list] = {}


def falling_factorial_degenerate(base, n: int):
    """Degenerate falling factorial base·(base-λ)·(base-2λ)···(base-(n-1)λ).

    An XLPoly base gives an XLPoly (generalized falling factorial of x);
    a rational base gives a LambdaPoly. n = 0 is the empty product 1.
    Products for integer bases and for X are memoized per process; other
    bases are multiplied out on every call.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(base, XLPoly):
        one, memoized = XLPoly.constant(1), base == X
    elif isinstance(base, (int, Fraction)):
        one, memoized = LambdaPoly((1,)), isinstance(base, int)
    else:
        raise TypeError(f"base must be XLPoly or rational, got {type(base).__name__}")
    products = _FALLING.setdefault(base, [one]) if memoized else [one]
    for i in range(len(products) - 1, n):
        products.append(products[-1] * _falling_factor(base, i))
    return products[n]


def _falling_factor(base, i: int):
    """The factor base - i·λ."""
    if isinstance(base, XLPoly):
        return base - i * XLPoly.constant(LAM)
    return LambdaPoly((base, -i))


def falling_factorial_classical(n: int) -> XLPoly:
    """Classical falling factorial x(x-1)···(x-n+1) as a λ-free XLPoly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    result = XLPoly.constant(1)
    for i in range(n):
        result = result * (X - i)
    return result


def binomial_poly(offset: int, n: int) -> XLPoly:
    """Binomial polynomial C(x+offset, n) = (x+offset)···(x+offset-n+1)/n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    result = XLPoly.constant(1)
    for i in range(n):
        result = result * (X + (offset - i))
    return result * Fraction(1, factorial(n))
