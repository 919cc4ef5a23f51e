"""Dense integer-coefficient polynomials with exact arithmetic.

Coefficients are stored constant term first with no trailing zeros, so
equality of values is equality of tuples.  Everything here is exact:
gcds run a content-and-primitive-part Euclid over the integers, and
interpolation goes through Fractions and checks integrality at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction


class IntPolynomial:
    """A polynomial over the integers.

    IntPolynomial([1, 0, -4]) is 1 - 4z^2; IntPolynomial([]) is 0.
    Supports +, -, * (with ints and polynomials), evaluation via call
    (on ints, Fractions, complex, or any ring element with + and *),
    and exact division.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return IntPolynomial(a)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        res = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, e in enumerate(other.coeffs):
                    res[i + j] += c * e
        return IntPolynomial(res)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner; works for any ring element mixing with ints."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by z^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def divides(self, other: "IntPolynomial") -> bool:
        """True iff self divides other in Q[z] (equivalently, exactly)."""
        if self.is_zero():
            return other.is_zero()
        _, rem = divmod_frac(other.coeffs, self.coeffs)
        return not rem

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self/divisor; requires zero remainder and an
        integer quotient."""
        quo, rem = divmod_frac(self.coeffs, divisor.coeffs)
        if rem:
            raise ValueError(f"{self} is not divisible by {divisor}")
        if any(c.denominator != 1 for c in quo):
            raise ValueError(f"quotient of {self} by {divisor} is not integral")
        return IntPolynomial([int(c) for c in quo])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            mag = abs(c)
            body = str(mag) if (i == 0 or mag != 1) else ""
            piece = body + ("*" if body and term else "") + term
            if not parts:
                parts.append(("-" if c < 0 else "") + piece)
            else:
                parts.append(("- " if c < 0 else "+ ") + piece)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def divmod_frac(num, den):
    """Quotient and remainder in Q[z] of coefficient sequences (constant
    term first), as lists with trailing zeros dropped from the remainder.

    Entries may be ints or Fractions.  Division by a monic divisor keeps
    integer inputs integral; otherwise each quotient entry is a Fraction.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den)
    r = list(num)
    lead = den[-1]
    quo = [0] * max(len(r) - dn + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        t = r[k + dn - 1]
        if lead != 1:
            t = Fraction(t, lead)
        quo[k] = t
        if t:
            for j in range(dn):
                r[k + j] -= t * den[j]
    while r and not r[-1]:
        r.pop()
    return quo, r


def content(p: IntPolynomial) -> int:
    return math.gcd(*p.coeffs) if p.coeffs else 0


def primitive_part(p: IntPolynomial) -> IntPolynomial:
    c = content(p)
    if c in (0, 1):
        return p
    return IntPolynomial([x // c for x in p.coeffs])


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    # lc(b)^(deg a - deg b + 1) * a mod b, all over the integers
    r = list(a.coeffs)
    d = b.coeffs
    lead = d[-1]
    while len(r) >= len(d):
        t = r[-1]
        r = [c * lead for c in r]
        for j in range(len(d)):
            r[len(r) - len(d) + j] -= t * d[j]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return IntPolynomial(r)


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Gcd over Z[z] (content times primitive gcd), leading coefficient
    positive.  Primitive-PRS Euclid keeps the coefficients integral."""
    if f.is_zero() and g.is_zero():
        return IntPolynomial()
    if f.is_zero() or g.is_zero():
        p = g if f.is_zero() else f
        return p if p.coeffs[-1] > 0 else -p
    c = math.gcd(content(f), content(g))
    a, b = primitive_part(f), primitive_part(g)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = primitive_part(_pseudo_rem(a, b))
        a, b = b, r
    a = a * c
    return a if a.coeffs[-1] > 0 else -a


def lagrange_interpolate(values) -> IntPolynomial:
    """The unique integer polynomial of degree < len(values) taking
    values[t] at t = 0, 1, 2, ...; raises if it is not integral."""
    pts = len(values)
    acc = [Fraction(0)] * pts
    for i, v in enumerate(values):
        if v == 0:
            continue
        basis = [Fraction(1)]
        denom = 1
        for j in range(pts):
            if j == i:
                continue
            # multiply basis by (z - j)
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= j * basis[k + 1]
            denom *= i - j
        scale = Fraction(v, denom)
        for k, c in enumerate(basis):
            acc[k] += scale * c
    if any(c.denominator != 1 for c in acc):
        raise ValueError("interpolated polynomial is not integral")
    return IntPolynomial([int(c) for c in acc])
