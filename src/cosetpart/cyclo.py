"""Numbers of the cyclotomic fields Q(zeta_h), exactly.

Numbers in Q(zeta_h) are rational-coefficient polynomials in zeta_h
reduced modulo the h-th cyclotomic polynomial Phi_h.  There is one
reduction, over the integers: the coefficients are put over the lcm L of
their denominators, the integer numerators are reduced modulo the monic
Phi_h in Z[x], and the phi(h) remainders are divided by L once
(CycloNumber.from_integers takes the numerators and L directly).  The
remainders stay ints when L divides all of them, as it does for every
zero, so a zero sum builds no Fraction; fractions is imported only where
a coefficient may be non-integral (a remainder L does not divide, or the
constructor's arbitrary rational coefficients).

For m coprime to h, sigma_m: zeta_h -> zeta_h^m is an automorphism of
Q(zeta_h) fixing Q (CycloNumber.conjugate, which returns a zero
unchanged).  analyze decides the residue sums of a partition by the
pushforward certificate (partition._pushforward_holds) and reports each
as a zero built without this module; it evaluates them here only when
that certificate fails, which contradicts the theory.  Then partition
reads the residues at zeta_h / n in closed form from the members' cyclic
classes, as integer buckets over one common denominator reduced once per
period h (partition._residue_sum, also behind residue_sum_check), and
conjugates the sum to every other m.  That needs no field operations, so
this module holds none: the residues of the generating functions
themselves, the reference for that closed form, live in oracle with the
arithmetic they divide with (oracle.CycloFieldNumber).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .poly import IntPolynomial

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


def _reduce(h: int, numerators, den: int) -> tuple:
    """Canonical coefficients of (sum_k numerators[k] zeta_h^k) / den: the
    integers are reduced modulo the monic Phi_h in Z[x], using
    zeta^phi = -sum_j c_j zeta^j, and the phi(h) remainders are divided by
    den once, as ints when den divides all of them, else as Fractions."""
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
    if all(c % den == 0 for c in r):
        return tuple(c // den for c in r)
    from fractions import Fraction  # only a non-integral coefficient needs it

    return tuple(Fraction(c, den) for c in r)


def _common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators over L, the lcm of the denominators of the ints
    and Fractions."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class CycloNumber:
    """An element of Q(zeta_h): coefficients of a polynomial in zeta_h
    of degree below phi(h), the canonical representative mod Phi_h.

    The coefficients are ints when all of them are integral (a zero always
    is) and Fractions otherwise; both forms of a value compare and hash
    equal.  Two numbers of the same order compare equal iff their
    coefficients do.  The field operations are the reference arithmetic of
    oracle.CycloFieldNumber."""

    __slots__ = ("h", "coeffs")

    def __init__(self, h: int, coeffs=()):
        from fractions import Fraction  # the coefficients may be any rationals

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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CycloNumber):
            return NotImplemented
        if other.h != self.h:
            raise ValueError(f"mixed cyclotomic orders {self.h} and {other.h}")
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.h, self.coeffs))

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
        return self.from_integers(self.h, out, den)

    def __repr__(self):
        return f"CycloNumber(h={self.h}, coeffs={[str(c) for c in self.coeffs]})"
