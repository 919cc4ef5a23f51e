"""Numbers of the cyclotomic fields Q(zeta_h), exactly.

Numbers in Q(zeta_h) are rational-coefficient polynomials in zeta_h
reduced modulo the h-th cyclotomic polynomial Phi_h, with the field
operations (CycloNumber: +, -, * and /, an int or Fraction operand being
the constant of the same order).  The reduction runs over the integers
where the coefficients are integers over one denominator L
(CycloNumber.from_integers, as partition builds a residue sum): the
numerators are reduced modulo the monic Phi_h in Z[x] and the phi(h)
remainders are divided by L once.  The remainders stay ints when L
divides all of them, as it does for every zero, and become Fractions
only otherwise; a number built from arbitrary rationals is reduced the
same way with L = 1.

For m coprime to h, sigma_m: zeta_h -> zeta_h^m is an automorphism of
Q(zeta_h) fixing Q (CycloNumber.conjugate, which returns a zero
unchanged).  analyze decides the residue sums of a partition by the
pushforward certificate (partition._pushforward_holds) and reports each
as a zero built without this module; it evaluates them here only when
that certificate fails, which contradicts the theory.  Then partition
reads the residues at zeta_h / n in closed form from the members' cyclic
classes, as integer buckets over one common denominator reduced once per
period h (partition._residue_sum, also behind residue_sum_check), and
conjugates the sum to every other m.  The field operations serve the
references: oracle divides N(z0) by D'(z0) here to read the residues of
the generating functions themselves, the reference for that closed form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .poly import IntPolynomial

# The bound keeps a long-running process from growing without limit; the
# orders met are periods of Schreier graphs and their divisors, so an
# analysis rarely needs more than a few dozen.
CYCLOTOMIC_CACHE_SIZE = 256


def _prime_factors(h: int) -> list[int]:
    """The distinct primes dividing h, by trial division."""
    primes, p = [], 2
    while p * p <= h:
        if h % p == 0:
            primes.append(p)
            while h % p == 0:
                h //= p
        p += 1
    return primes + [h] if h > 1 else primes


@lru_cache(maxsize=CYCLOTOMIC_CACHE_SIZE)
def cyclotomic(h: int) -> IntPolynomial:
    """The h-th cyclotomic polynomial, in time near-linear in h.

    Phi_h(x) = Phi_r(x^(h/r)) for r the product of the primes dividing h,
    and for r > 1, Phi_r = prod over the divisors q of r of
    (1 - x^(r/q))^mu(q) (the signs of x^k - 1 cancel as sum mu(q) = 0).
    That is a power series with constant term 1 that is exact to degree
    phi(r), so each factor is one pass over phi(r) + 1 coefficients:
    dividing by 1 - x^k multiplies by 1 + x^k + x^2k + ...."""
    if h < 1:
        raise ValueError("order must be >= 1")
    if h == 1:
        return IntPolynomial([-1, 1])
    primes = _prime_factors(h)
    r = math.prod(primes)
    phi = math.prod(p - 1 for p in primes)
    c = [1] + [0] * phi
    for size in range(1, len(primes) + 1):
        for q in itertools.combinations(primes, size):
            k = r // math.prod(q)
            if size % 2:  # mu(q) = -1
                for j in range(k, phi + 1):
                    c[j] += c[j - k]
            else:
                for j in range(phi, k - 1, -1):
                    c[j] -= c[j - k]
    spread = [0] * (phi * (h // r) + 1)
    spread[:: h // r] = c
    return IntPolynomial(spread)


@lru_cache(maxsize=CYCLOTOMIC_CACHE_SIZE)
def _phi_terms(h: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(h) and the nonzero terms (j, c_j), j < phi(h), of the monic Phi_h."""
    coeffs = cyclotomic(h).coeffs
    return len(coeffs) - 1, tuple((j, c) for j, c in enumerate(coeffs[:-1]) if c)


def _reduce(h: int, numerators, den: int) -> tuple:
    """Canonical coefficients of (sum_k numerators[k] zeta_h^k) / den: the
    numerators (ints, or Fractions with den = 1) are reduced modulo the
    monic Phi_h, using zeta^phi = -sum_j c_j zeta^j, and the phi(h)
    remainders are divided by den once, as ints when den divides all of
    them, else as Fractions."""
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
    return tuple(Fraction(c, den) for c in r)


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
    of degree below phi(h), the canonical representative mod Phi_h.

    The coefficients are ints when all of them are integral (a zero always
    is) and Fractions otherwise; both forms of a value compare and hash
    equal.  An int or Fraction operand, in arithmetic or ==, is the
    constant of the same order, and a rational constant hashes as that
    rational; numbers of different orders do not mix (ValueError)."""

    __slots__ = ("h", "coeffs")

    def __init__(self, h: int, coeffs=()):
        self._set(h, [Fraction(x) for x in coeffs], 1)

    @classmethod
    def from_integers(cls, h: int, numerators, den: int = 1) -> "CycloNumber":
        """(sum_k numerators[k] zeta_h^k) / den for integer numerators
        (or Fraction numerators with den = 1)."""
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

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.h != self.h:
                raise ValueError(f"mixed cyclotomic orders {self.h} and {other.h}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.h, [other])
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a rational constant equals that rational, so hashes as it
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
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
        r0, r1 = mod, _qtrim([Fraction(c) for c in self.coeffs])
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
        out = [0] * self.h
        for k, c in enumerate(self.coeffs):
            out[k * m % self.h] += c
        return self.from_integers(self.h, out)  # Fractions reduce over den = 1

    def __repr__(self):
        return f"CycloNumber(h={self.h}, coeffs={[str(c) for c in self.coeffs]})"
