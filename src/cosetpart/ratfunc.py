"""Exact rational functions and generating functions of Schreier automata.

A generating function p(z) = sum a_k z^k counts accepted positive words
by length.  They start at the graph's basepoint i, so for end vertex f,
a_k = (A^k)_{if}.  So p = N/q with q(z) = det(I - zA), which has q(0) = 1
and comes from the spectral layer, and N a signed minor of I - zA, of
degree < d.  N is therefore the product q * s truncated below z^d, where
s holds the walk counts a_0..a_{d-1}.  Its coefficients
N_m = sum_j q_j a_{m-j} are the entries at f of
u_m = sum_j q_j e_i A^(m-j), and u_m = u_{m-1} A + q_m e_i, so one walk
of d - 1 sparse vector steps along the generator permutations (each
over the nonzero entries alone, which on a graph of period h lie on one
cyclic class) gives the numerators for every end vertex at once;
genfunc reads its end's column from that walk, cached per graph (the
basepoint is part of the graph, so a re-based graph walks again).  Normal forms come from poly_gcd (GCDHEU,
PRS fallback), whose first evaluation point is a power of two X: when the
values of the column N and of q there have a gcd of at most X/2, N and q
are coprime and N/q is already the normal form, with no digits read and
no trial division.  The independent routes are in oracle: exact matrix
powers (series_from_matrix), and walk_counts, one walk per end, from
which the tests rebuild each numerator.  A normal form N'/D with
deg N' < d, deg D <= d and D(0) = 1 whose series matches it to 2d terms
is the generating function N/q itself: N' q - N D has degree < 2d and
vanishes mod z^(2d), so it is 0.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress

from .poly import IntPolynomial, poly_gcd
from .schreier import SchreierGraph, _tuple_new
from .spectral import char_data


class RationalFunction(namedtuple("RationalFunction", "num den")):
    """Quotient of integer polynomials in normal form: numerator and
    denominator coprime, denominator constant term +1.  Equality is
    structural on the normal form.

    An immutable named tuple (num, den) of the normal form: equality and
    hash are those of the field tuple, so it also compares equal to the
    plain tuple (num, den)."""

    __slots__ = ()

    def __new__(cls, num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = IntPolynomial(), IntPolynomial([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0 or g.coeffs[0] != 1:
                num = num.exact_div(g)
                den = den.exact_div(g)
        if not den.coeffs or den.coeffs[0] == 0:
            raise ValueError("denominator must not vanish at 0")
        if den.coeffs[0] < 0:
            num, den = -num, -den
        if den.coeffs[0] != 1:
            raise ValueError(
                f"cannot normalise denominator constant term {den.coeffs[0]} to 1 "
                "with integer coefficients"
            )
        return _tuple_new(cls, (num, den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den == other.den:
            return RationalFunction(self.num - other.num, self.den)
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def series(self, depth: int) -> list[int]:
        """Maclaurin coefficients a_0..a_depth via the linear recurrence
        a_k = N_k - sum_{j>=1} D_j a_{k-j} (valid since D(0) = 1)."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        n, d = self.num.coeffs, self.den.coeffs
        out: list[int] = []
        for k in range(depth + 1):
            a = n[k] if k < len(n) else 0
            for j in range(1, min(k, len(d) - 1) + 1):
                a -= d[j] * out[k - j]
            out.append(a)
        return out

    def __str__(self):
        if self.den == IntPolynomial([1]):
            return str(self.num)
        return f"({self.num})/({self.den})"


ZERO = RationalFunction(IntPolynomial(), IntPolynomial([1]))


def rational(num_coeffs, den_coeffs) -> RationalFunction:
    return RationalFunction(IntPolynomial(num_coeffs), IntPolynomial(den_coeffs))


def geometric(n: int) -> RationalFunction:
    """1/(1 - nz), the generating function of the whole rank-n group."""
    return rational([1], [1, -n])


# The bound keeps a long-running process from growing without limit; an
# analysis of up to this many members never evicts one of its own.
GENFUNC_CACHE_SIZE = 2048


def _step(graph: SchreierGraph, vec: list[int]) -> list[int]:
    """vec A: each letter carries the count at v to perm[v], for the
    nonzero entries of vec alone."""
    d = graph.d
    nxt = [0] * d
    nonzero = list(compress(range(d), vec))
    for perm in graph.action:
        for v in nonzero:
            nxt[perm[v] - 1] += vec[v]
    return nxt


# Tables are d x d integers and are only read while a graph's generating
# functions are first built (genfunc caches each result), so a few suffice.
WALK_TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=WALK_TABLE_CACHE_SIZE)
def _numerators(
    graph: SchreierGraph,
) -> tuple[IntPolynomial, tuple[tuple[int, ...], ...]]:
    """q = det(I - zA), and a table whose entry [end - 1][m] is the
    coefficient of z^m in the numerator N of genfunc(graph, end), m < d:
    the end entry of u_m, where, with i the basepoint, u_0 = q_0 e_i and
    u_m = u_{m-1} A + q_m e_i.

    Each step runs over the nonzero entries of u_m alone (_step).
    On a graph of period h, q_m = 0 unless h | m (q(z) = q_C(z^h), see
    spectral._reciprocal_charpoly), so u_m lives on one cyclic class, the
    class of i plus m: a d-cycle's walk takes O(d) interpreted steps."""
    q = char_data(graph).reciprocal_charpoly
    start = graph.basepoint - 1
    vec = [0] * graph.d
    vec[start] = q.coeffs[0]
    rows = [vec]
    for m in range(1, graph.d):
        vec = _step(graph, vec)
        if m < len(q.coeffs):
            vec[start] += q.coeffs[m]
        rows.append(vec)
    return q, tuple(zip(*rows))


@lru_cache(maxsize=GENFUNC_CACHE_SIZE)
def genfunc(graph: SchreierGraph, end: int) -> RationalFunction:
    """Generating function of the automaton from the graph's basepoint to
    the end vertex, in normal form: coefficient k counts the positive
    words of length k in the coset at end.

    It is N/q, N the end's column of the walk table, put in normal form
    by RationalFunction.  poly_gcd decides most of these pairs coprime at
    one power-of-two point, before any digit or trial division (see
    poly._gcdheu)."""
    if not 1 <= end <= graph.d:
        raise ValueError(f"end must lie in 1..{graph.d}")
    q, table = _numerators(graph)
    return RationalFunction(IntPolynomial(table[end - 1]), q)
