"""Dense integer-coefficient polynomials with exact arithmetic.

Coefficients are stored constant term first with no trailing zeros, so
equality of values is equality of tuples.  Everything here is exact.
Gcds run GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989)
on the primitive parts: the integer gcd of their values at one large
point, read back as balanced base-xi digits, is accepted only if it
divides both exactly, which makes it the gcd.  When that integer gcd is
at most xi/2 the polynomials are coprime, with no digits read: most
generating functions' N and q are settled so.  A primitive-PRS Euclid
over the integers is the fallback when no evaluation point succeeds.
Values at a power of two 2^k are read by shifts (at_power_of_two), at
GCDHEU's first point and in partition's one-point sum identity.
Division is exact division in Z[z]; nothing here builds a Fraction.
The division in Q[z] (divmod_frac) lives in cyclo, with the inverse in
Q(zeta_h) that runs it; divisibility in Q[z] and the derivative serve
only the references and live in oracle.
"""

from __future__ import annotations

import math


class IntPolynomial:
    """A polynomial over the integers.

    IntPolynomial([1, 0, -4]) is 1 - 4z^2; IntPolynomial([]) is 0.
    Supports +, -, * (with ints and polynomials), evaluation via call,
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
        """Evaluate at the integer x by Horner's rule, as GCDHEU does at
        its evaluation points."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def at_power_of_two(self, k: int) -> int:
        """The value at 2^k, by Horner's rule with shifts for products.

        Time against self(1 << k), CPython 3.11 on one x86-64 core, best
        of seven: 0.83 at degree 4 and k = 8; 0.74 at degree 15 and
        k = 36 (the acceptance corpus's largest sum-identity point); 0.88
        at degree 23 and k = 12; 0.33 at degree 160 with 155-bit
        coefficients and k = 160 (the index-160 transversal of
        <160-cycle, (1 2)>)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc << k) + c
        return acc

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self/divisor; requires zero remainder and an
        integer quotient."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo = _int_quotient(self.coeffs, divisor.coeffs)
        if quo is None:
            raise ValueError(f"{self} is not divisible by {divisor} in Z[z]")
        return IntPolynomial(quo)

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


# The gcd of coprime polynomials; IntPolynomial is immutable, so one is shared.
_ONE = IntPolynomial([1])


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


def _prs_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Gcd of nonzero primitive a and b, up to sign, by primitive-PRS
    Euclid; coefficients stay integral."""
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, primitive_part(_pseudo_rem(a, b))
    return a


def _int_quotient(num, den):
    """num / den for integer coefficient sequences (constant term first,
    den nonzero) when den divides num in Z[z], else None.  Stops at the
    first leading coefficient that den's does not divide."""
    dn = len(den)
    r = list(num)
    lead = den[-1]
    quo = [0] * max(len(r) - dn + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        t, m = divmod(r[k + dn - 1], lead)
        if m:
            return None
        quo[k] = t
        if t:
            for j in range(dn):
                r[k + j] -= t * den[j]
    return None if any(r) else quo


def _balanced_digits(gamma: int, xi: int) -> list[int]:
    """Digits of gamma in base xi, each in (-xi/2, xi/2], constant first."""
    digits = []
    while gamma:
        t = gamma % xi
        if t > xi // 2:
            t -= xi
        digits.append(t)
        gamma = (gamma - t) // xi
    return digits


# GCDHEU's evaluation point grows by this ratio (about 2.73) after a failed
# candidate, at most GCDHEU_GROWTHS times before the PRS fallback.
GCDHEU_GROWTHS = 6
GCDHEU_GROWTH = (73794, 27011)


def _gcdheu(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial | None:
    """GCDHEU on primitive a and b of positive degree: their gcd with a
    positive leading coefficient, or None when every point fails.

    Let G be the primitive part of the balanced digits of
    gcd(a(xi), b(xi)), c their content.  If G divides a and b, their gcd
    is G k for some k in Z[z], and G(xi) k(xi) divides c G(xi), so k(xi)
    divides c, which is at most xi/2.  The roots of k are roots of a and
    of b, so they lie within 1 + min(|a|, |b|) of 0 (max-norm); with
    xi > 2 min(|a|, |b|) + 2 a nonconstant k has |k(xi)| > xi/2.  So k is
    a unit and G is the gcd.

    When gcd(a(xi), b(xi)) <= xi/2 its balanced digits are that one
    constant, so G = 1, which divides a and b, and the argument makes
    their gcd a unit: a and b are coprime, decided with no digits read
    and no trial division.  This one-point certificate settles most
    coprime pairs, generating functions' N and q among them.  The first
    point is the power of two just above 2 min(|a|, |b|) + 28, whose
    values are read by shifts.
    """
    k = (2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 28).bit_length()
    xi = 1 << k
    gamma = math.gcd(a.at_power_of_two(k), b.at_power_of_two(k))
    for growths in range(GCDHEU_GROWTHS + 1):
        if growths:
            xi = xi * GCDHEU_GROWTH[0] // GCDHEU_GROWTH[1]
            gamma = math.gcd(a(xi), b(xi))
        if gamma <= xi >> 1:
            return _ONE
        cand = primitive_part(IntPolynomial(_balanced_digits(gamma, xi)))
        if cand.coeffs[-1] < 0:
            cand = -cand
        if (
            _int_quotient(a.coeffs, cand.coeffs) is not None
            and _int_quotient(b.coeffs, cand.coeffs) is not None
        ):
            return cand
    return None


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Gcd over Z[z] (content times primitive gcd), leading coefficient
    positive.  The primitive gcd comes from GCDHEU, whose candidates are
    accepted only after exact division, with primitive-PRS Euclid as the
    fallback when no evaluation point succeeds."""
    if f.is_zero() and g.is_zero():
        return IntPolynomial()
    if f.is_zero() or g.is_zero():
        p = g if f.is_zero() else f
        return p if p.coeffs[-1] > 0 else -p
    c = math.gcd(content(f), content(g))
    a, b = primitive_part(f), primitive_part(g)
    if a.degree == 0 or b.degree == 0:
        return IntPolynomial([c])
    a = _gcdheu(a, b) or _prs_gcd(a, b)
    if c != 1:
        a = a * c
    return a if a.coeffs[-1] > 0 else -a
