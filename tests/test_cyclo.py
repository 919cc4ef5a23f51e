import math
import random
from fractions import Fraction

import pytest

from cosetpart import formats
from cosetpart.cyclo import CycloNumber, cyclotomic, divmod_frac
from cosetpart.oracle import NotSimple, divides, pole_order, residue_at
from cosetpart.poly import IntPolynomial
from cosetpart.ratfunc import genfunc, rational
from cosetpart.spectral import period


def test_cyclotomic_examples():
    assert cyclotomic(1) == IntPolynomial([-1, 1])
    assert cyclotomic(2) == IntPolynomial([1, 1])
    assert cyclotomic(4) == IntPolynomial([1, 0, 1])
    # (x^6-1)/((x-1)(x+1)(x^2+x+1))
    assert cyclotomic(6) == IntPolynomial([1, -1, 1])


def test_cyclotomic_divides_x_h_minus_1():
    # every order up to 60, and the 60 divisors of 10800 = 2^4 3^3 5^2
    for h in sorted({*range(1, 61), *(d for d in range(1, 10801) if 10800 % d == 0)}):
        x_h_minus_1 = IntPolynomial([-1] + [0] * (h - 1) + [1])
        assert divides(cyclotomic(h), x_h_minus_1)
        assert sum(cyclotomic(d).degree for d in range(1, h + 1) if h % d == 0) == h
        assert cyclotomic(h).coeffs[-1] == 1  # monic


def test_cyclo_number_field_operations():
    x = CycloNumber(12, [1, 2, 0, 3])
    y = CycloNumber(12, [0, -1, 5])
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x * y) * y.inverse() == x
    assert x * x.inverse() == 1
    assert (x - x).is_zero()
    assert x * 2 == x + x
    assert x / 2 == x * Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        CycloNumber(12).inverse()
    with pytest.raises(ValueError):
        x + CycloNumber(5)
    assert CycloNumber(3, [2]).inverse() == Fraction(1, 2)


def test_rational_constants_compare_by_value():
    # an int or Fraction c is the constant CycloNumber(h, [c]) of any order:
    # equal, and of equal hash, so it finds the same dict entry
    for h in (1, 3, 4, 12):
        for c in (0, 1, -7, Fraction(-1, 2), Fraction(5, 3)):
            x = CycloNumber(h, [c])
            assert x == c and c == x and x != c + 1
            assert hash(x) == hash(c) and {c: h}[x] == h
    assert CycloNumber(3, [1]) == 1 and CycloNumber(3, [0, 1]) != 1
    # ints where every coefficient is integral, Fractions otherwise
    assert [type(c) for c in CycloNumber(6, [Fraction(4, 2), 3]).coeffs] == [int, int]
    assert [type(c) for c in CycloNumber(6, [Fraction(1, 2), 3]).coeffs] == [Fraction] * 2
    x = CycloNumber(12, [1, 2, 0, 3])
    assert hash(x) == hash(fraction_form(12, [Fraction(c) for c in x.coeffs]))


def test_mixed_orders_raise():
    for a, b in ((CycloNumber(3, [1]), CycloNumber(6, [1])), (CycloNumber(4), CycloNumber(8))):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            a == b
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            a + b


def fraction_form(h, coeffs):
    """A CycloNumber holding the given coefficients as they are, so with
    Fractions it is the all-Fraction form of the value, integral
    coefficients included."""
    x = CycloNumber.__new__(CycloNumber)
    object.__setattr__(x, "h", h)
    object.__setattr__(x, "coeffs", tuple(coeffs))
    return x


def assert_int_form_is_fraction_form(x, expected):
    """x, built by the integer reduction, is the value whose coefficients
    are the Fractions in expected: ints where all of them are integral
    (a zero always is), else those Fractions; equal, of equal hash, repr
    and JSON, and conjugating alike."""
    integral = all(c.denominator == 1 for c in expected)
    assert all(type(c) is (int if integral else Fraction) for c in x.coeffs)
    assert len(x.coeffs) == len(expected)
    for c, e in zip(x.coeffs, expected):
        assert c == e and hash(c) == hash(e) and str(c) == str(e)
    ref = fraction_form(x.h, expected)
    assert x == ref and hash(x) == hash(ref) and repr(x) == repr(ref)
    assert formats.cyclo_to_json(x) == formats.cyclo_to_json(ref)
    for m in range(1, x.h + 1):
        if math.gcd(m, x.h) == 1:
            assert x.conjugate(m).coeffs == ref.conjugate(m).coeffs


def test_integer_reduction_matches_fraction_division():
    # one integer reduction over the lcm of the denominators gives the
    # remainder of Fraction polynomial division by Phi_h, coefficient for
    # coefficient
    rng = random.Random(11)
    for h in (2, 4, 9, 12, 15, 20, 30):
        phi = cyclotomic(h).degree
        for _ in range(40):
            length = rng.randint(0, 3 * h)
            coeffs = [
                Fraction(rng.randint(-30, 30), rng.choice([1, 2, -3, 4, -5, 7, 12]))
                if rng.random() < 0.7
                else Fraction(0)
                for _ in range(length)
            ]
            rem = divmod_frac(coeffs, cyclotomic(h).coeffs)[1]
            expected = tuple(rem) + (Fraction(0),) * (phi - len(rem))
            assert CycloNumber(h, coeffs).coeffs == expected
            assert_int_form_is_fraction_form(CycloNumber(h, coeffs), expected)
            # integer numerators over one (possibly negative) denominator:
            # random buckets, buckets that are multiples of den (integral
            # values) and multiples of Phi_h (zero sums, as on a partition)
            den = rng.choice([1, 6, -4, 35])
            nums = [rng.randint(-50, 50) for _ in range(length)]
            multiple = [rng.randint(-9, 9) for _ in range(max(length - phi, 1))]
            zero_sum = list((IntPolynomial(multiple) * cyclotomic(h)).coeffs)
            for nums in (nums, [den * x for x in nums], zero_sum, [0] * length):
                rem = divmod_frac([Fraction(x, den) for x in nums], cyclotomic(h).coeffs)[1]
                expected = tuple(rem) + (Fraction(0),) * (phi - len(rem))
                assert CycloNumber.from_integers(h, nums, den).coeffs == expected
                assert_int_form_is_fraction_form(CycloNumber.from_integers(h, nums, den), expected)
            assert CycloNumber.from_integers(h, zero_sum, den).is_zero()


def test_zeta_power_reduction():
    # zeta_4^2 = -1
    assert CycloNumber.from_integers(4, [0, 0, 1]) == -1
    # zeta_6 satisfies zeta^2 = zeta - 1
    z = CycloNumber.from_integers(6, [0, 1])
    assert z * z == z - 1


def test_residue_examples():
    # residues computed by N/D' at z0
    assert residue_at(rational([1], [1, 0, -4]), 2, 1, 2) == Fraction(1, 4)
    assert residue_at(rational([0, 2], [1, 0, -4]), 2, 1, 2) == Fraction(-1, 4)
    assert residue_at(rational([1], [1, -2]), 1, 0, 2) == Fraction(-1, 2)


def test_residue_errors():
    assert residue_at(rational([1], [1, -2]), 4, 1, 2) is None
    # (1-2z)^2 denominator: double pole at 1/2
    with pytest.raises(NotSimple):
        residue_at(rational([1], [1, -4, 4]), 1, 0, 2)


def test_pole_order_examples():
    assert pole_order(rational([1], [1, 0, 0, 0, -16]), 4, 1, 2) == 1
    assert pole_order(rational([1], [1, -2]), 4, 1, 2) == 0
    assert pole_order(rational([1], [1, -4, 4]), 1, 0, 2) == 2


def test_residue_linearity():
    f = rational([1], [1, 0, -4])
    g = rational([0, 2], [1, 0, -4])
    total = residue_at(f + g, 1, 0, 2)  # f+g = 1/(1-2z)
    assert total == residue_at(f, 1, 0, 2) + residue_at(g, 1, 0, 2)


def test_automaton_poles_are_simple(graph_family):
    # every rotation (1/n) zeta_h^m of the dominant pole is simple
    for graph in graph_family.values():
        n, h = graph.rank, period(graph)
        for end in range(1, graph.d + 1):
            f = genfunc(graph, end)
            for m in range(h):
                assert pole_order(f, h, m, n) == 1
