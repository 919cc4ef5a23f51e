"""Exact arithmetic in the cyclotomic fields Q(zeta_h).

Numbers in Q(zeta_h) are rational-coefficient polynomials in zeta_h
reduced modulo the h-th cyclotomic polynomial Phi_h.  There is one
reduction, over the integers: the coefficients are put over the lcm L of
their denominators, the integer numerators are reduced modulo the monic
Phi_h in Z[x], and the phi(h) remainders are divided by L once
(CycloNumber.from_integers takes the numerators and L directly).

For m coprime to h, sigma_m: zeta_h -> zeta_h^m is an automorphism of
Q(zeta_h) fixing Q (CycloNumber.conjugate, which returns a zero
unchanged).  partition reads the residues of a partition's members at
zeta_h / n in closed form from their cyclic classes, as integer buckets
over one common denominator reduced once per period h, and conjugates the
sum to every other m.  The residues of the generating functions
themselves, the reference for that closed form, live in oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .poly import IntPolynomial, divmod_frac

# The bound keeps a long-running process from growing without limit; the
# orders met are periods of Schreier graphs and their divisors, so an
# analysis rarely needs more than a few dozen.
CYCLOTOMIC_CACHE_SIZE = 256


@lru_cache(maxsize=CYCLOTOMIC_CACHE_SIZE)
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


@lru_cache(maxsize=CYCLOTOMIC_CACHE_SIZE)
def _phi_terms(h: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(h) and the nonzero terms (j, c_j), j < phi(h), of the monic Phi_h."""
    coeffs = cyclotomic(h).coeffs
    return len(coeffs) - 1, tuple((j, c) for j, c in enumerate(coeffs[:-1]) if c)


def _reduce(h: int, numerators, den: int) -> tuple[Fraction, ...]:
    """Canonical coefficients of (sum_k numerators[k] zeta_h^k) / den: the
    integers are reduced modulo the monic Phi_h in Z[x], using
    zeta^phi = -sum_j c_j zeta^j, and the phi(h) remainders are divided by
    den once."""
    phi, terms = _phi_terms(h)
    r = list(numerators)
    for k in range(len(r) - 1, phi - 1, -1):
        t = r[k]
        if t:
            base = k - phi
            for j, c in terms:
                r[base + j] -= t * c
    del r[phi:]
    r += [0] * (phi - len(r))
    return tuple(Fraction(c, den) for c in r)


def _common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators over L, the lcm of the Fractions' denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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
        numerators, den = _common_denominator([Fraction(x) for x in coeffs])
        self._set(h, numerators, den)

    @classmethod
    def from_integers(cls, h: int, numerators, den: int = 1) -> "CycloNumber":
        """(sum_k numerators[k] zeta_h^k) / den for integer numerators."""
        x = cls.__new__(cls)
        x._set(h, numerators, den)
        return x

    def _set(self, h: int, numerators, den: int) -> None:
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "coeffs", _reduce(h, numerators, den))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    @classmethod
    def from_rational(cls, h: int, value) -> "CycloNumber":
        return cls(h, [Fraction(value)])

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
        if self.is_zero():
            return self
        numerators, den = _common_denominator(self.coeffs)
        out = [0] * self.h
        for k, c in enumerate(numerators):
            out[k * m % self.h] += c
        return CycloNumber.from_integers(self.h, out, den)

    def __repr__(self):
        return f"CycloNumber(h={self.h}, coeffs={[str(c) for c in self.coeffs]})"
