"""Univariate polynomials with exact rational coefficients, stored on integers.

A polynomial is kept as a tuple of integer ``numerators`` over one positive
``denominator``, ascending by degree, reduced so that
``gcd(denominator, *numerators) == 1`` and with no trailing zero.  That form
is canonical: equal polynomials have equal numerators and denominators, so
they compare and hash alike.  The zero polynomial has no numerators and the
denominator 1.

Every operation runs on Python integers: sums and products bring the
operands over a common denominator and reduce once at the end, and
:meth:`Poly.__divmod__` is fraction-free long division.  The rational view
is kept for callers: ``coefficients`` is a tuple of
:class:`fractions.Fraction`, built on demand, as are ``coefficient(k)`` and
``leading_coefficient``.

All arithmetic is exact, which the kernel-representation decision procedures
rely on: rank over the polynomial ring and module membership are
discontinuous in the coefficients, so floating point is never used here.

Every value enters the exact layer through one reader, :func:`_ratio`: ints,
bools and Fractions as they are, numpy integers (also inside a Fraction)
through ``int()``, ``"num/den"`` strings by Fraction, integer-valued floats as
those integers.  NaN and infinity raise :class:`NonFiniteEntry`; other floats,
malformed strings and other types raise :class:`InvalidArgument`.  Points of
evaluation are read by the same rule as coefficients, so evaluating a
polynomial always gives an exact Fraction.  The one float
bridge, which reads a binary float as the rational it encodes, is the float
rows of ``exactla._integer_rows``: exact recovery's record under its 2**53
rule, and the SVD route's null rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm
from numbers import Integral
from typing import Iterable

from .errors import InvalidArgument, NonFiniteEntry, ZeroDivisor, _count


def _ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator of an exact value, by the module's rule."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):  # int() re-reads a numpy numerator
        return int(value.numerator), int(value.denominator)
    if isinstance(value, Integral):  # numpy integers
        return int(value), 1
    if isinstance(value, str):
        try:
            return Fraction(value).as_integer_ratio()
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, float):
        if not isfinite(value):
            raise NonFiniteEntry(f"exact arithmetic needs finite entries, got {value!r}")
        if value.is_integer():
            return int(value), 1
    raise InvalidArgument(
        f"cannot read {value!r} as an exact rational; pass an integer, a Fraction "
        "or a 'num/den' string"
    )


def _fraction(value) -> Fraction:
    return Fraction(*_ratio(value))


class Poly:
    """Immutable polynomial over the rationals."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, coefficients: Iterable = ()):
        pairs = [_ratio(c) for c in coefficients]
        den = lcm(*(d for _, d in pairs))
        _settle(self, [n * (den // d) for n, d in pairs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return (Poly.from_numerators, (self.numerators, self.denominator))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_numerators(cls, numerators: Iterable[int], denominator: int = 1) -> "Poly":
        """The polynomial sum_k numerators[k] / denominator * x**k (denominator > 0)."""
        p = object.__new__(cls)
        _settle(p, list(numerators), _count(denominator, "denominator", 1))
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return _make([], 1)

    @classmethod
    def one(cls) -> "Poly":
        return _make([1], 1)

    @classmethod
    def constant(cls, value) -> "Poly":
        n, d = _ratio(value)
        return _make([n], d)

    @classmethod
    def x(cls, degree: int = 1) -> "Poly":
        """The monomial x**degree."""
        return _make([0] * _count(degree, "degree") + [1], 1)

    # -- structure ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Ascending coefficients as Fractions; empty for the zero polynomial."""
        den = self.denominator
        return tuple(Fraction(n, den) for n in self.numerators)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def is_constant(self) -> bool:
        return len(self.numerators) <= 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.numerators:
            return Fraction(0)
        return Fraction(self.numerators[-1], self.denominator)

    def coefficient(self, k: int) -> Fraction:
        if _count(k, "k") < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other, sign: int) -> "Poly":
        """self + sign * other, over the least common denominator."""
        other = _as_poly(other)
        a, da = self.numerators, self.denominator
        b, db = other.numerators, other.denominator
        if not b:
            return self
        if da == db:
            ma, mb, den = 1, sign, da
        else:
            g = gcd(da, db)
            ma, mb, den = db // g, sign * (da // g), da // g * db
        if ma != 1:
            a = [x * ma for x in a]
        if mb != 1:
            b = [y * mb for y in b]
        out = [x + y for x, y in zip(a, b)]
        out.extend((a if len(a) > len(b) else b)[len(out) :])
        return _make(out, den)

    def __add__(self, other) -> "Poly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make([-n for n in self.numerators], self.denominator)

    def __sub__(self, other) -> "Poly":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return _make([], 1)
        den = self.denominator * other.denominator
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return _make([x * c for x in a], den)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _make(out, den)

    __rmul__ = __mul__

    def scale(self, value) -> "Poly":
        n, d = _ratio(value)
        return _make([n * x for x in self.numerators], self.denominator * d)

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        return _make([0] * _count(k, "shift") + list(self.numerators), self.denominator)

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        """Quotient Q·db / (s·da) and remainder R / (s·da), from s·A = Q·B + R
        of :func:`_pseudo_divide` on the numerators."""
        other = _as_poly(other)
        s, Q, R = _pseudo_divide(self.numerators, other.numerators)
        den = s * self.denominator
        return _make([v * other.denominator for v in Q], den), _make(R, den)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise InvalidArgument(f"{self!r} is not divisible by {other!r}")
        return q

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Poly":
        """The polynomial divided by its leading coefficient: numerators over the top one."""
        nums = self.numerators
        if not nums or (nums[-1] == self.denominator):
            return self
        lead = nums[-1]
        return _make(list(nums) if lead > 0 else [-n for n in nums], abs(lead))

    def __call__(self, value) -> Fraction:
        """Evaluate at an exact value, read by the module's rule, via Horner.

        For p/q, the integer Horner sum of n_k p^k q^(deg-k) is divided once
        by denominator·q^deg.
        """
        nums = self.numerators
        p, q = _ratio(value)
        acc, qpow = 0, 1
        for n in reversed(nums):
            acc = acc * p + n * qpow
            qpow *= q
        return Fraction(acc, self.denominator * (qpow // q if nums else 1))

    # -- comparisons --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __bool__(self):
        return bool(self.numerators)

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.numerators:
            return "0"
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        out = terms[0]
        for term in terms[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _pseudo_divide(A, B) -> tuple[int, list[int], list[int]]:
    """s > 0, Q and R with s·A = Q·B + R and deg R < deg B, for integer
    coefficient lists.  Each step cancels the top remainder coefficient r
    against B's leading b: with g = gcd(r, b), the remainder and the quotient
    so far are multiplied by |b|/g (s collects these) and (r/g)·sign(b) times
    the shifted B is subtracted.  A unit leading b never scales anything.
    """
    if not B:
        raise ZeroDivisor("polynomial division by zero")
    d, lead = len(B) - 1, B[-1]
    R = list(A)
    Q = [0] * max(0, len(R) - d)
    s = 1
    while len(R) > d:
        top = R.pop()
        if not top:
            continue
        g = gcd(top, lead)
        m, f = (lead // g, top // g) if lead > 0 else (-lead // g, -top // g)
        if m != 1:
            R = [m * v for v in R]
            Q = [m * v for v in Q]
            s *= m
        k = len(R) - d
        Q[k] = f
        for i in range(d):
            R[k + i] -= f * B[i]
    return s, Q, R


def _settle(p: Poly, nums: list[int], den: int) -> None:
    """Store nums/den on p in canonical form: no trailing zero, lowest terms."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    object.__setattr__(p, "numerators", tuple(nums))
    object.__setattr__(p, "denominator", den)


def _make(nums: list[int], den: int) -> Poly:
    p = object.__new__(Poly)
    _settle(p, nums, den)
    return p


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()
