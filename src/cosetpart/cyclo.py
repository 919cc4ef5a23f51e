"""Exact arithmetic in the cyclotomic fields Q(zeta_h) and residues of
rational functions at the scaled roots of unity z0 = zeta_h^m / n.

The point z0 is always handled symbolically through the triple
(h, m, n); numbers in Q(zeta_h) are rational-coefficient polynomials in
zeta_h reduced modulo the h-th cyclotomic polynomial Phi_h.  A residue
N(z0)/D'(z0) takes three steps, none of them arithmetic in Q(zeta_h)
term by term:

- Pole test.  z0 is a primitive root of unity of order h' = h/gcd(m, h)
  scaled by 1/n, so its minimal polynomial over Q is Phi_h'(nz) up to a
  constant.  z0 is a root of D of multiplicity k iff Phi_h'(nz)^k
  divides D: integer divisibility tests, the same for every m coprime
  to h.
- Evaluation.  n^deg p(zeta_h^m / n) = sum_k c_k n^(deg-k) zeta_h^(km):
  the integer terms are bucketed by km mod h and reduced once modulo the
  monic Phi_h, all over the integers.  N and D' are evaluated this way
  and divided once in Q(zeta_h).
- Galois conjugation.  For m coprime to h, sigma_m: zeta_h -> zeta_h^m
  is an automorphism of Q(zeta_h) fixing Q.  Generating functions have
  rational coefficients, so the residue at zeta_h^m / n is sigma_m of the
  residue at zeta_h / n (CycloNumber.conjugate), and a residue sum need
  only be computed at m = 1.

oracle keeps the direct route (Horner's rule in Q(zeta_h), pole order
from successive derivatives) as an independent reference.
residue_numeric is a floating-point cross-check for debugging only;
every acceptance check runs on the exact path.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .poly import IntPolynomial, divmod_frac
from .ratfunc import RationalFunction


class NotAPole(ValueError):
    """The denominator does not vanish at the requested point."""


class NotSimple(ValueError):
    """The requested pole has multiplicity greater than one."""


@lru_cache(maxsize=None)
def cyclotomic(h: int) -> IntPolynomial:
    """The h-th cyclotomic polynomial: divide x^h - 1 by the cyclotomic
    polynomials of the proper divisors of h."""
    if h < 1:
        raise ValueError("order must be >= 1")
    p = IntPolynomial([-1] + [0] * (h - 1) + [1])
    for d in range(1, h):
        if h % d == 0:
            p = p.exact_div(cyclotomic(d))
    return p


def _qtrim(c: list[Fraction]) -> list[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _qmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    res = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] += x * y
    return res


def _qsub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _qtrim(out)


class CycloNumber:
    """An element of Q(zeta_h): coefficients of a polynomial in zeta_h
    of degree below phi(h), the canonical representative mod Phi_h."""

    __slots__ = ("h", "coeffs")

    def __init__(self, h: int, coeffs=()):
        phi = cyclotomic(h).degree
        c = [Fraction(x) for x in coeffs]
        if len(c) >= phi + 1:
            _, c = divmod_frac(c, cyclotomic(h).coeffs)
        c += [Fraction(0)] * (phi - len(c))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    @classmethod
    def zero(cls, h: int) -> "CycloNumber":
        return cls(h)

    @classmethod
    def from_rational(cls, h: int, value) -> "CycloNumber":
        return cls(h, [Fraction(value)])

    @classmethod
    def zeta_power(cls, h: int, e: int) -> "CycloNumber":
        e %= h
        return cls(h, [0] * e + [1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.h != self.h:
                raise ValueError(f"mixed cyclotomic orders {self.h} and {other.h}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.h, other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.h, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.h, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.h, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.h, _qmul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """Extended Euclid against Phi_h, which is irreducible over Q, so
        every nonzero element is a unit."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        mod = [Fraction(x) for x in cyclotomic(self.h).coeffs]
        r0, r1 = mod, _qtrim(list(self.coeffs))
        u0, u1 = [], [Fraction(1)]
        while r1:
            q, r = divmod_frac(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, _qsub(u0, _qmul(q, u1))
        # invariant r_i == u_i * self (mod Phi); r0 is a nonzero constant
        # gcd because Phi_h is irreducible over Q
        assert len(r0) == 1, "cyclotomic polynomial must be irreducible"
        scale = 1 / r0[0]
        return CycloNumber(self.h, [scale * c for c in u0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def conjugate(self, m: int) -> "CycloNumber":
        """sigma_m(self) for the automorphism zeta_h -> zeta_h^m of
        Q(zeta_h); m must be coprime to h."""
        if math.gcd(m, self.h) != 1:
            raise ValueError(f"m = {m} must be coprime to h = {self.h}")
        out = [Fraction(0)] * self.h
        for k, c in enumerate(self.coeffs):
            out[k * m % self.h] += c
        return CycloNumber(self.h, out)

    def __repr__(self):
        return f"CycloNumber(h={self.h}, coeffs={[str(c) for c in self.coeffs]})"


def pole_multiplicity(den: IntPolynomial, h: int, n: int) -> int:
    """The largest k with Phi_h(nz)^k dividing den: the multiplicity of
    every zeta_h^m / n with m coprime to h as a root of den."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    # Phi_h(nz) is primitive (constant term +-1), so by Gauss's lemma each
    # exact quotient is integral
    factor = IntPolynomial([c * n**j for j, c in enumerate(cyclotomic(h).coeffs)])
    order = 0
    while den.degree >= factor.degree:
        quo, rem = divmod_frac(den.coeffs, factor.coeffs)
        if rem:
            break
        order += 1
        den = IntPolynomial([int(c) for c in quo])
    return order


def _root_order(h: int, m: int) -> int:
    # zeta_h^m is a primitive root of unity of this order
    if h < 1:
        raise ValueError("order must be >= 1")
    return h // math.gcd(m, h)


def _scaled_eval(p: IntPolynomial, h: int, m: int, n: int) -> list[int]:
    """Integer coefficients over zeta_h, reduced mod Phi_h, of
    n^deg(p) * p(zeta_h^m / n)."""
    if h < 1:
        raise ValueError("order must be >= 1")
    if n < 1:
        raise ValueError("rank must be >= 1")
    buckets = [0] * h
    scale = 1
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c:
            buckets[k * m % h] += c * scale
        scale *= n
    return divmod_frac(buckets, cyclotomic(h).coeffs)[1]


def eval_at_root(p: IntPolynomial, h: int, m: int, n: int) -> CycloNumber:
    """p(zeta_h^m / n), exactly."""
    return CycloNumber(h, [Fraction(c, n**p.degree) for c in _scaled_eval(p, h, m, n)])


def residue_at(f: RationalFunction, h: int, m: int, n: int) -> CycloNumber | None:
    """Residue N(z0)/D'(z0) of f at z0 = zeta_h^m / n, or None if z0 is not
    a pole.  Raises NotSimple if z0 is a multiple pole."""
    order = pole_multiplicity(f.den, _root_order(h, m), n)
    if not order:
        return None
    if order > 1:
        raise NotSimple(f"zeta_{h}^{m}/{n} is a multiple pole")
    dprime = f.den.derivative()
    num = _scaled_eval(f.num, h, m, n)
    den = _scaled_eval(dprime, h, m, n)
    # N(z0)/D'(z0) = n^(deg D' - deg N) * num/den
    shift = dprime.degree - f.num.degree
    if shift >= 0:
        num = [c * n**shift for c in num]
    else:
        den = [c * n**-shift for c in den]
    return CycloNumber(h, num) / CycloNumber(h, den)


def pole_order(f: RationalFunction, h: int, m: int, n: int) -> int:
    """Multiplicity of z0 = zeta_h^m / n as a root of the denominator
    (0 if z0 is not a pole)."""
    return pole_multiplicity(f.den, _root_order(h, m), n)


def residue_simple(f: RationalFunction, h: int, m: int, n: int) -> CycloNumber:
    """Residue N(z0)/D'(z0) at the simple pole z0 = zeta_h^m / n.

    Raises NotAPole if D(z0) != 0 and NotSimple if D'(z0) = 0 as well.
    """
    value = residue_at(f, h, m, n)
    if value is None:
        raise NotAPole(f"zeta_{h}^{m}/{n} is not a pole")
    return value


def residue_numeric(f: RationalFunction, h: int, m: int, n: int) -> complex:
    """Floating-point residue for debugging cross-checks only."""
    z0 = cmath.exp(2j * cmath.pi * m / h) / n
    return f.num(z0) / f.den.derivative()(z0)
