"""Univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by degree as a tuple of
:class:`fractions.Fraction`; the zero polynomial is the empty tuple.  All
arithmetic is exact, which the kernel-representation decision procedures
rely on: rank over the polynomial ring and module membership are
discontinuous in the coefficients, so floating point is never used here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise TypeError(
                f"refusing to coerce non-integer float {value!r}; pass a Fraction "
                "or string to make the intended rational explicit"
            )
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Poly:
    """Immutable polynomial over the rationals."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [_coerce(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _from_fractions(cls, coeffs: list[Fraction]) -> "Poly":
        """Build from a list of Fractions, trimming trailing zeros, without coercion."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coefficients", tuple(coeffs))
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((_coerce(value),))

    @classmethod
    def x(cls, degree: int = 1) -> "Poly":
        """The monomial x**degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls([0] * degree + [1])

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def is_constant(self) -> bool:
        return len(self.coefficients) <= 1

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coefficients[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        a, b = self.coefficients, _as_poly(other).coefficients
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b) :])
        return Poly._from_fractions(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._from_fractions([-c for c in self.coefficients])

    def __sub__(self, other) -> "Poly":
        a, b = self.coefficients, _as_poly(other).coefficients
        out = [x - y for x, y in zip(a, b)]
        out.extend(a[len(b) :])
        out.extend(-y for y in b[len(a) :])
        return Poly._from_fractions(out)

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        a, b = self.coefficients, _as_poly(other).coefficients
        if not a or not b:
            return Poly.zero()
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return Poly._from_fractions([x * c for x in a])
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        return Poly._from_fractions(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, value) -> "Poly":
        c = _coerce(value)
        return Poly._from_fractions([c * a for a in self.coefficients])

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Poly._from_fractions([Fraction(0)] * k + list(self.coefficients))

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        remainder = list(self.coefficients)
        d, lead = other.degree, other.leading_coefficient
        while len(remainder) - 1 >= d and any(c != 0 for c in remainder):
            while remainder and remainder[-1] == 0:
                remainder.pop()
            if len(remainder) - 1 < d:
                break
            k = len(remainder) - 1 - d
            factor = remainder[-1] / lead
            quotient[k] = factor
            for i, c in enumerate(other.coefficients):
                remainder[k + i] -= factor * c
            remainder.pop()
        return Poly._from_fractions(quotient), Poly._from_fractions(remainder)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return q

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading_coefficient)

    def __call__(self, value):
        """Evaluate via Horner; exact for Fraction/int arguments."""
        result = value * 0
        for c in reversed(self.coefficients):
            result = result * value + c
        return result

    # -- comparisons --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if self.is_zero:
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


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()
