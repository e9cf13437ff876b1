"""Exact coefficient rings for the degenerate sequence families.

Everything is built over the rationals so every identity in this package
can be tested as an exact polynomial equality instead of a floating-point
approximation. Scalars are ``int`` or ``fractions.Fraction``; any other
scalar (a float above all) raises TypeError rather than entering the ring.

Two polynomial rings are provided, both dense:

  LambdaPoly   polynomial in the deformation variable λ, coefficients in Q.
               Index i of ``coeffs`` is the coefficient of λ^i.
  XLPoly       polynomial in x whose coefficients are LambdaPoly values,
               i.e. an element of Q[λ][x]. Index j is the coefficient of x^j.

Storage: a LambdaPoly is an integer polynomial over one common denominator
(the layout of FLINT's ``fmpq_poly``): a tuple ``_num`` of int numerators
and one positive int ``_den``, so the coefficient of λ^i is _num[i]/_den.
The Eulerian numbers, falling factorials and Stirling numbers live in
Z[λ], where _den stays 1 and the ring runs on plain int arithmetic.
``coeffs`` rebuilds the Fraction coefficients on demand.

Canonical form: trailing zero numerators are trimmed, and the numerators
and the denominator share no factor, gcd(_den, *_num) == 1. The zero
polynomial is ((), 1). Every operation normalizes its result once, with a
single gcd over the whole content rather than one per coefficient, so
equality compares (_num, _den). XLPoly trims trailing zero coefficients;
its coefficients are canonical LambdaPoly values. Ring results of both
classes are built by private constructors that skip the public __init__
and its per-coefficient checks; an XLPoly times a scalar (int, Fraction
or LambdaPoly) multiplies coefficient by coefficient, and a LambdaPoly
times an int, a Fraction or a constant scales its numerators.

Integer kernels: the builders whose values lie in Z[λ], or in Z[λ] over
one known denominator, do their arithmetic on lists of int numerators and
build one canonical LambdaPoly per value with ``_make`` (one XLPoly of
them with ``_xl``). Their one shared step is ``_add_linear``,
acc += num·(a + bλ). On an element of Z[λ][x], one int list per
x-coefficient, ``_times_x_minus_lambda`` multiplies by (x - jλ), the step
of the falling factorials of x here and of the Bernoulli polynomials in
``sequences``. ``_negate_lambda`` takes p(λ) to p(-λ) by flipping the
sign of the odd numerators, and ``_x_falling`` multiplies out the int
coefficients of (x+offset)_n behind ``binomial_poly`` and
``falling_factorial_classical``. ``sequences`` and ``egf`` build every
table route on these kernels (``stirling1`` divides (x)_n by x - jλ with
``_add_linear``), and ``verify`` sums the values its eq-19, eq-38,
row-sum and alternating-sum checks compare with them.
``XLPoly.eval_x`` is an integer Horner scheme over the common
denominator of the x-coefficients, like ``LambdaPoly.eval`` in λ.

Packed values: where one value enters many sums, a builder packs its
numerators c_0..c_d into one int Σ c_i·2^(S·i), in signed digits of a
slot of S bits (``_pack``): the value at λ = 2^S. A sum or an int
multiple is then one big-int operation, and the factor 1 + sλ is
p + ((s·p) << S). ``_unpack`` returns the numerators once, when the value
is stored. The slot must hold every numerator that is unpacked, so each
kernel bounds them from its inputs' sup-norms (``_norm``) and takes
``_slot`` of that bound. The sums are three kernels:

  _horner_x_minus_one   G_n = Σ_{i<n} C(n,i)·A_i·(1)_{n-i,-λ}·(x-1)^{n-i-1}
                        as the nested Horner scheme in (x - 1) whose step
                        is acc·(1 + sλ)(x - 1) + C(n,i)·A_i, on one packed
                        int per x-coefficient; its bound is
                        ``_horner_bound``. The ``gf-recursion`` route of
                        ``sequences`` (A_n = G_n) and the generating-
                        function residual of ``egf``, (x - 1)·(A_n - G_n)
                        at n ≥ 1, make the same call.
  _packed_sums          int linear combinations of packed values, one
                        big-int dot product per sum, in the slot of the
                        largest Σ_k |coefficient|·norm; it sums
                        ``sequences.worpitzky_lhs``.
  _falling_sums         int linear combinations of the falling factorials
                        (j)_{n,λ}, j up to the longest coefficient list,
                        for each n of a range. It packs nothing: the row
                        is built packed, from (j)_{0,λ} = 1, and carried
                        from n to n + 1 by one step F <- j·F - ((n·F) << S)
                        per j, so only the sums are unpacked, in the slot
                        of the largest Σ_j |coefficient|·j(j+1)···(j+n-1).
                        The ``explicit`` Eulerian and Stirling rows of
                        ``sequences`` run on it.

The callers of ``_horner_x_minus_one`` pack its inputs and unpack what
they form from its results; the other two kernels unpack their own sums.
A value used in one sum only costs more to pack and unpack than to add
as a list, so the other builders stay on lists,
``sequences.eulerian_explicit`` (one cell) among them.

Memos: every value a builder of the package memoizes, here and in
``egf``, ``sequences`` and ``oracles``, lives in the one store
``_MEMOS``, under a key of names and ints: the falling factorials per
base, the rows of each table route (the Bernoulli taps are the rows of
the ``bernoulli`` route), the ``direct`` power-sum columns, the ``eulerian`` and ``bernoulli`` power sums per n
and m, β_n(x), A_n(-1), the descent distributions and the classical
triangles.
``sequences._clear_memos`` empties it.

Values are immutable after construction; all operations return new values.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul, sub
from typing import Iterable, Tuple, Union

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


def _scalar(v):
    """``v`` itself if it is an exact rational; TypeError otherwise."""
    if isinstance(v, (int, Fraction)):
        return v
    raise TypeError(f"expected an int or Fraction, got {type(v).__name__} {v!r}")


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


def _canonical(num: list, den: int) -> Tuple[tuple, int]:
    """Integer numerators over a positive denominator, trimmed and reduced."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


_new = object.__new__


def _make(num: list, den: int) -> "LambdaPoly":
    """A LambdaPoly from integer numerators over den, bypassing __init__."""
    p = _new(LambdaPoly)
    p._num, p._den = _canonical(num, den)
    return p


def _constant(v: Scalar) -> "LambdaPoly":
    """The constant LambdaPoly of an int or Fraction, bypassing __init__."""
    return _make([v.numerator], v.denominator)


def _xl(coeffs: list) -> "XLPoly":
    """An XLPoly from canonical LambdaPoly coefficients, bypassing __init__."""
    p = _new(XLPoly)
    p.coeffs = _trim(coeffs)
    return p


def _add_linear(acc: list, num, a: int, b: int = 0) -> list:
    """acc += num·(a + bλ) on int numerator lists, in place; returns acc.

    The one step of the integer kernels: a falling-factorial factor, a
    Horner step, or (b = 0) a term of a linear combination. acc grows as
    far as the product reaches.
    """
    need = len(num) + 1 if b else len(num)
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    if a:
        for i, c in enumerate(num):
            acc[i] += a * c
    if b:
        for i, c in enumerate(num, 1):
            acc[i] += b * c
    return acc


def _slot(bound: int) -> int:
    """The slot width S, in bits, of ``_pack`` for numerators of magnitude
    at most ``bound``: the least multiple of 8 with 2^(S-1) > bound."""
    return (bound.bit_length() + 8) & -8


def _bias(S: int, d: int) -> int:
    """Σ_{i<d} 2^(S-1)·2^(S·i), which shifts d signed digits of slot S into
    unsigned ones."""
    return int.from_bytes((bytes(S // 8 - 1) + b"\x80") * d, "little")


def _pack(num, S: int) -> int:
    """The int numerators num as one int, Σ_i num[i]·2^(S·i), in signed
    digits of a slot S from ``_slot``: every |num[i]| < 2^(S-1), and a
    numerator outside the slot raises OverflowError. ``_unpack`` returns
    the numerators of a result whose own numerators, not just its
    inputs', fit the slot; one that does not comes back wrong, silently,
    so each kernel sizes S from a bound on what it unpacks.
    """
    w, half = S // 8, 1 << (S - 1)
    digits = b"".join([(c + half).to_bytes(w, "little") for c in num])
    return int.from_bytes(digits, "little") - _bias(S, len(num))


def _unpack(v: int, S: int) -> list:
    """The int numerators of a value packed by ``_pack`` with slot S, lowest
    power of λ first: as many digits as v needs, perhaps with a trailing
    zero (``_make`` trims it)."""
    w, half, digit = S // 8, 1 << (S - 1), int.from_bytes
    # |v| < 2^(S·d - 2) fits d signed digits
    d = (v.bit_length() + S + 1) // S
    b = (v + _bias(S, d)).to_bytes(w * d, "little")
    return [digit(b[i:i + w], "little") - half for i in range(0, w * d, w)]


def _norm(values) -> int:
    """The largest |numerator| of the LambdaPoly ``values``; 0 if there is
    none."""
    return max((max(map(abs, v._num), default=0) for v in values), default=0)


def _horner_x_minus_one(packed: list, n: int, S: int) -> list:
    """The nested Horner scheme in (x - 1) on values packed in slot S,

        acc <- acc·(1 + (n-i)λ)·(x-1) + C(n,i)·A_i(x),   i = 0 .. n-1,

    from acc = 0, that is Σ_{i<n} C(n,i)·A_i(x)·(1)_{n-i,-λ}·(x-1)^{n-i-1},
    where packed[i] holds the packed x-coefficients of A_i, at least i + 1
    of them. x-coefficient m of a step is d + ((s·d) << S) + C(n,i)·A(i,m)
    with d = c_{m-1} - c_m and s = n - i. Returns the n packed
    x-coefficients of acc, whose numerators ``_horner_bound`` bounds."""
    acc = packed[0][:1] if n else []  # the step i = 0 gives C(n,0)·A_0
    for i in range(1, n):
        s, c = n - i, comb(n, i)
        acc = [d + ((s * d) << S) + c * a for d, a in zip(map(sub, [0] + acc, acc + [0]), packed[i])]
    return acc


def _horner_bound(norms, n: int) -> int:
    """A bound on every numerator of ``_horner_x_minus_one`` for n when
    norms[i] bounds those of A_i: a step takes a difference of two
    neighbours (at most twice the bound), times 1 + sλ (at most 1 + s
    times that), plus C(n,i)·norms[i]."""
    bound = 0
    for i in range(n):
        bound = 2 * (1 + n - i) * bound + comb(n, i) * norms[i]
    return bound


def _packed_sums(columns, nums) -> list:
    """The int numerators of Σ_k columns[j][k]·nums[k] for each j, for int
    coefficients columns[j] and int numerator lists nums. Each value is
    packed once, in the slot of max_j Σ_k |columns[j][k]|·max|nums[k]|, a
    bound on every numerator of every sum, or of max|nums[k]| if that is
    larger; each sum is one big-int dot product, unpacked once."""
    norms = [max(map(abs, num), default=0) for num in nums]
    S = _slot(max([sum(map(mul, map(abs, column), norms)) for column in columns] + norms, default=0))
    packed = [_pack(num, S) for num in nums]
    return [_unpack(sum(map(mul, column, packed)), S) for column in columns]


def _falling_sums(start: int, columns: list) -> list:
    """For n = start, start + 1, ..., one n per entry of ``columns``, the
    int numerators of Σ_j c[j]·(j)_{n,λ} for each int coefficient list c
    in columns[n - start], j = 0 .. len(c) - 1.

    The row (j)_{n,λ}, j below the length of the longest c, is carried
    packed from n to n + 1 by one big-int step per j,
    (j)_{n+1,λ} = (j)_{n,λ}·(j - nλ), that is F <- j·F - ((n·F) << S),
    from (j)_{0,λ} = 1; the rows before start are stepped through and not
    summed. The numerators of (j)_{n,λ} have signs alternating with the
    power of λ, so their magnitudes sum to its value at λ = -1,
    j(j+1)···(j+n-1), and Σ_j |c[j]|·j(j+1)···(j+n-1) bounds every
    numerator of a sum: one slot S holds the largest such bound of the
    call. The rows themselves are never unpacked, so they may overflow
    it. Each sum is one big-int dot product, unpacked once."""
    width = max((len(c) for row in columns for c in row), default=0)
    stop, norms, bound = start + len(columns), [1] * width, 0
    for n in range(stop):
        if n:  # norms[j] = j(j+1)···(j+n-1)
            norms = list(map(mul, norms, range(n - 1, n - 1 + width)))
        if n >= start:
            bound = max([bound] + [sum(map(mul, map(abs, c), norms)) for c in columns[n - start]])
    S, packed, sums = _slot(bound), [1] * width, []
    for n in range(stop):
        if n:  # (j)_{n,λ} = (j)_{n-1,λ}·(j - (n-1)λ)
            s = n - 1
            packed = [j * f - ((s * f) << S) for j, f in enumerate(packed)]
        if n >= start:
            sums.append([_unpack(sum(map(mul, c, packed)), S) for c in columns[n - start]])
    return sums


def _times_x_minus_lambda(acc: list, j: int) -> list:
    """(x - jλ)·acc for acc in Z[λ][x] as int numerator lists, one per
    x-coefficient, lowest power of x first; returns a new list.
    x-coefficient m of the product is c_{m-1} - jλ·c_m."""
    return [_add_linear(list(prev), c, 0, -j) for prev, c in zip([[]] + acc, acc + [[]])]


def _negate_lambda(num) -> list:
    """The numerators of p(-λ) from those of p(λ): odd powers flip sign.

    The denominator and the canonical form are unchanged, so
    ``_make(_negate_lambda(p._num), p._den)`` is ``p.scale_lambda(-1)``.
    """
    out = list(num)
    out[1::2] = [-c for c in out[1::2]]
    return out


def _x_falling(offset: int, n: int) -> list:
    """Int coefficients of (x+offset)(x+offset-1)···(x+offset-n+1), lowest
    power of x first."""
    cs = [1]
    for i in range(n):
        cs = _add_linear([], cs, offset - i, 1)
    return cs


def _sum(p: "LambdaPoly", q: "LambdaPoly", sign: int) -> "LambdaPoly":
    """p + sign·q over the least common denominator of p and q."""
    a, b = p._num, q._num
    g = gcd(p._den, q._den)
    fa, fb = q._den // g, p._den // g
    den = p._den * fa
    fb *= sign
    if len(a) >= len(b):
        out = [c * fa for c in a]
        for i, c in enumerate(b):
            out[i] += fb * c
    else:
        out = [c * fb for c in b]
        for i, c in enumerate(a):
            out[i] += fa * c
    return _make(out, den)


class LambdaPoly:
    """Polynomial in λ with exact rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_scalar(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        self._num, self._den = _canonical([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def constant(cls, c: Scalar) -> "LambdaPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "LambdaPoly":
        """The polynomial λ itself."""
        return cls((0, 1))

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest power of λ first."""
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._num))
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self) -> int:
        """Degree in λ; -1 for the zero polynomial."""
        return len(self._num) - 1

    def coeff(self, i: int) -> Fraction:
        num = self._num
        return Fraction(num[i], self._den) if 0 <= i < len(num) else Fraction(0)

    def constant_value(self) -> Fraction:
        """The value of a λ-free polynomial; raises if λ actually occurs."""
        if self.degree > 0:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff(0)

    def eval(self, v: Scalar) -> Fraction:
        """Exact value at λ = v = p/q: an integer Horner scheme for
        Σ_i num_i·p^i·q^(d-i), divided by den·q^d once at the end."""
        v = _scalar(v)
        num = self._num
        if not num:
            return Fraction(0)
        p, q = v.numerator, v.denominator
        acc, qpow = num[-1], 1
        for c in reversed(num[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self._den * qpow)

    def scale_lambda(self, s: Scalar) -> "LambdaPoly":
        """Substitute λ -> s·λ (coefficient of λ^i picks up a factor s^i).

        With s = p/q, numerator i becomes num_i·p^i·q^(d-i) over den·q^d.
        """
        s = _scalar(s)
        p, q = s.numerator, s.denominator
        out = list(self._num)
        ppow = 1
        for i in range(1, len(out)):
            ppow *= p
            out[i] *= ppow
        qpow = 1
        if q != 1:
            for i in range(len(out) - 2, -1, -1):
                qpow *= q
                out[i] *= qpow
        return _make(out, self._den * qpow)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LambdaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return _constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return _make([c * other for c in self._num], self._den)
        if isinstance(other, Fraction):
            s, den = other.numerator, self._den * other.denominator
            return _make([c * s for c in self._num], den)
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        a, b = self._num, other._num
        if len(a) > len(b):  # the longer factor in the inner loop
            a, b = b, a
        if len(a) <= 1:  # a constant factor (or zero) scales the other one
            s = a[0] if a else 0
            return _make([c * s for c in b], self._den * other._den)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _make(out, self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if len(self._num) <= 1:
            return hash(self.coeff(0))
        return hash((self._num, self._den))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"LambdaPoly({list(self.coeffs)!r})"

    def __str__(self):
        return _format_terms(
            (c, "" if i == 0 else ("λ" if i == 1 else f"λ^{i}"))
            for i, c in enumerate(self.coeffs)
            if c != 0
        )


_ZERO = _make([], 1)


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
        """Exact value at x = v = p/q: an integer Horner scheme over
        D = lcm of the coefficient denominators,

            acc <- acc·p + num_j·q^(d-j)·(D/den_j),   j = d-1 .. 0,

        divided by D·q^d once at the end."""
        v = _scalar(v)
        cs = self.coeffs
        if not cs:
            return _ZERO
        p, q = v.numerator, v.denominator
        den = lcm(*[c._den for c in cs])
        top = cs[-1]
        acc, qpow = [c * (den // top._den) for c in top._num], 1
        for c in reversed(cs[:-1]):
            qpow *= q
            acc = _add_linear([a * p for a in acc], c._num, qpow * (den // c._den))
        return _make(acc, den * qpow)

    def eval_lambda(self, v: Scalar) -> "XLPoly":
        """Substitute a rational value for λ, leaving a λ-free XLPoly."""
        v = _scalar(v)
        return XLPoly(c.eval(v) for c in self.coeffs)

    def scale_lambda(self, s: Scalar) -> "XLPoly":
        """Substitute λ -> s·λ in every x-coefficient."""
        s = _scalar(s)
        return _xl([c.scale_lambda(s) for c in self.coeffs])

    def constant_value(self) -> LambdaPoly:
        """The value of an x-free polynomial; raises if x actually occurs."""
        if self.x_degree > 0:
            raise ValueError(f"not constant in x: {self}")
        return self.coeff(0)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, XLPoly):
            return other
        if isinstance(other, LambdaPoly):
            return _xl([other])
        if isinstance(other, (int, Fraction)):
            return _xl([_constant(other)])
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
        return _xl(out)

    __radd__ = __add__

    def __neg__(self):
        return _xl([-c for c in self.coeffs])

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
        if isinstance(other, (int, Fraction, LambdaPoly)):  # a scalar: coefficient by coefficient
            return _xl([c * other if c._num else c for c in self.coeffs])
        if not isinstance(other, XLPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _xl([])
        # a cell holds None until its first nonzero product arrives
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca._num:
                for j, cb in enumerate(b, i):
                    if cb._num:
                        t, cur = ca * cb, out[j]
                        out[j] = t if cur is None else cur + t
        return _xl([_ZERO if c is None else c for c in out])

    __rmul__ = __mul__

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


#: Every memoized builder value of the package, kept per process: a list
#: that only grows by complete entries (``_grown``) or a value built whole
#: (``_built``), keyed by a tuple of names and ints that names the memo.
_MEMOS: dict = {}


def _grown(key: tuple, n: int, extend, *args) -> list:
    """The list at ``key``, first extended by ``extend(entries, n, *args)``
    if it holds no entry n; ``extend`` appends only complete entries."""
    entries = _MEMOS.get(key)
    if entries is None:
        entries = _MEMOS[key] = []
    if len(entries) <= n:
        extend(entries, n, *args)
    return entries


def _built(key: tuple, build, *args):
    """The value at ``key``, built by ``build(*args)`` on first use."""
    value = _MEMOS.get(key)
    if value is None:
        value = _MEMOS[key] = build(*args)
    return value


def _extend_falling(products: list, n: int, base) -> None:
    """(base)_{0,λ} .. (base)_{n,λ}, each the last times (base - iλ), on int
    numerator lists; the base "x" stands for X."""
    scalar = base != "x"
    if not products:
        products.append(_make([1], 1) if scalar else _xl([_make([1], 1)]))
    for i in range(len(products) - 1, n):
        last = products[-1]
        if scalar:  # the numerators times (base - iλ)
            products.append(_make(_add_linear([], last._num, base, -i), 1))
        else:  # last·(x - iλ)
            cs = _times_x_minus_lambda([c._num for c in last.coeffs], i)
            products.append(_xl([_make(c, 1) for c in cs]))


def falling_factorial_degenerate(base, n: int):
    """Degenerate falling factorial base·(base-λ)·(base-2λ)···(base-(n-1)λ).

    An int base gives a LambdaPoly; the base X gives an XLPoly (the
    generalized falling factorial of x). Any other base raises TypeError.
    n = 0 is the empty product 1. The products are memoized per base and
    process, and extended on int numerator lists.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not isinstance(base, int):
        if not (isinstance(base, XLPoly) and base == X):
            raise TypeError(f"base must be an int or X, got {type(base).__name__} {base!r}")
        base = "x"
    products = _MEMOS.get(("falling", base))  # a hit packs no arguments for _grown
    if products is None or len(products) <= n:
        products = _grown(("falling", base), n, _extend_falling, base)
    return products[n]


def _x_product(offset: int, n: int, den: int) -> XLPoly:
    """(x+offset)(x+offset-1)···(x+offset-n+1)/den, λ-free: multiplied out
    on int coefficients, then each coefficient lifted once."""
    return _xl([_make([c], den) for c in _x_falling(offset, n)])


def falling_factorial_classical(n: int) -> XLPoly:
    """Classical falling factorial x(x-1)···(x-n+1) as a λ-free XLPoly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _x_product(0, n, 1)


def binomial_poly(offset: int, n: int) -> XLPoly:
    """Binomial polynomial C(x+offset, n) = (x+offset)···(x+offset-n+1)/n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _x_product(offset, n, factorial(n))
