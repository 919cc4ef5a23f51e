"""poly_gcd (GCDHEU, with primitive-PRS Euclid as its fallback) against
primitive-PRS Euclid alone, on fixed-seed random integer polynomials."""

import random
from collections import Counter

from cosetpart import poly
from cosetpart.oracle import poly_gcd_by_prs
from cosetpart.poly import IntPolynomial, poly_gcd

# (z^3 - z)^m and its shift (z + 3)^3 - (z + 3) have no common root, but
# 6^m divides both at every integer, so gcd(a(xi), b(xi)) carries an
# integer factor of at least 6^m that spoils GCDHEU's candidate until xi
# outgrows it (growth for small m, the PRS fallback for large m).
CUBE = IntPolynomial([0, -1, 0, 1])
SHIFTED_CUBE = IntPolynomial([24, 26, 9, 1])


def _poly(rng, max_degree, bound):
    degree = rng.randint(0, max_degree)
    return IntPolynomial([rng.randint(-bound, bound) for _ in range(degree + 1)])


def _unit_content(rng):
    return rng.choice([1, -1, 2, -3, 4, 6, -10, 12, 30, -2**40])


def _cases(rng, count):
    """(f, g) pairs: planted common factors with nontrivial content on one
    or both sides, coprime pairs, zeros and constants, coefficients up to
    10^15, and cofactors with a large common fixed divisor."""
    for i in range(count):
        kind = i % 5
        common = _poly(rng, 4, rng.choice([3, 50, 10**6]))
        if kind == 0:
            bound = rng.choice([1, 9, 10**3, 10**15])
            f = common * _poly(rng, 5, bound) * _unit_content(rng)
            g = common * _poly(rng, 5, bound) * _unit_content(rng)
        elif kind == 1:
            f, g = _poly(rng, 6, 20), _poly(rng, 6, 10**9)
        elif kind == 2:
            f = rng.choice([IntPolynomial(), IntPolynomial([rng.randint(-40, 40)])])
            g = rng.choice([IntPolynomial(), _poly(rng, 4, 30), common * 6])
        else:
            a, b = common, common
            for _ in range(rng.randint(1, 9)):
                a, b = a * CUBE, b * SHIFTED_CUBE
            f = a * _poly(rng, 2, 5) * _unit_content(rng)
            g = b * _poly(rng, 2, 5)
        yield (f, g) if rng.random() < 0.5 else (g, f)


def test_poly_gcd_matches_prs(monkeypatch):
    tries, fallbacks = [0], [0]
    balanced_digits, prs_gcd = poly._balanced_digits, poly._prs_gcd

    def counted_digits(gamma, xi):
        tries[0] += 1
        return balanced_digits(gamma, xi)

    def counted_prs(a, b):
        fallbacks[0] += 1
        return prs_gcd(a, b)

    monkeypatch.setattr(poly, "_balanced_digits", counted_digits)
    monkeypatch.setattr(poly, "_prs_gcd", counted_prs)
    paths = Counter()
    for f, g in _cases(random.Random(20260), 3000):
        tries[0] = fallbacks[0] = 0
        got = poly_gcd(f, g)
        assert got == poly_gcd_by_prs(f, g), (f, g)
        assert got.is_zero() or got.coeffs[-1] > 0
        if fallbacks[0]:
            assert tries[0] == poly.GCDHEU_GROWTHS + 1
            paths["prs fallback"] += 1
        else:
            paths[{0: "no evaluation", 1: "first xi"}.get(tries[0], "grown xi")] += 1
    assert set(paths) == {"no evaluation", "first xi", "grown xi", "prs fallback"}, paths

