import random

import pytest

from cosetpart import poly
from cosetpart.cyclo import cyclotomic
from cosetpart.oracle import (
    _matrix_power_rows,
    derivative,
    divides,
    poly_gcd_by_prs,
    series_from_matrix,
    walk_counts,
)
from cosetpart.poly import IntPolynomial, poly_gcd
from cosetpart.ratfunc import (
    ZERO,
    RationalFunction,
    _numerators,
    genfunc,
    geometric,
    rational,
)
from cosetpart.schreier import SchreierGraph
from cosetpart.spectral import char_data, period


def rebased(graph, start):
    """The graph with its basepoint moved to start: genfunc walks from
    there, while the references take start as an argument."""
    return SchreierGraph(graph.action, start)


def test_intpoly_basics():
    p = IntPolynomial([1, 0, -4])
    q = IntPolynomial([0, 2])
    assert p.degree == 2 and q.degree == 1
    assert (p + q).coeffs == (1, 2, -4)
    assert (p * q).coeffs == (0, 2, 0, -8)
    assert (-q).coeffs == (0, -2)
    assert IntPolynomial([0, 0]).is_zero()
    assert p(2) == 1 - 16
    for k in (0, 1, 5, 64):
        assert p.at_power_of_two(k) == p(2**k) and q.at_power_of_two(k) == q(2**k)
    assert IntPolynomial().at_power_of_two(3) == 0
    assert derivative(p) == IntPolynomial([0, -8])
    assert str(IntPolynomial([1, 0, 0, 0, -16])) == "1 - 16*z^4"


def test_poly_gcd_and_exact_div():
    a = IntPolynomial([1, 0, -4])  # (1-2z)(1+2z)
    b = IntPolynomial([1, 2])
    assert poly_gcd(a, b) == IntPolynomial([1, 2])
    assert a.exact_div(b) == IntPolynomial([1, -2])
    assert poly_gcd(IntPolynomial([2, 2]), IntPolynomial([4])) == IntPolynomial([2])
    assert divides(b, a)
    assert not divides(IntPolynomial([1, 1]), IntPolynomial([1, 2]))
    with pytest.raises(ValueError):
        a.exact_div(IntPolynomial([1, 1]))


def test_rational_normalisation():
    # (1+2z)/(1-4z^2) cancels to 1/(1-2z)
    assert rational([1, 2], [1, 0, -4]) == rational([1], [1, -2])
    # sign of the denominator constant is normalised to +1
    assert rational([1], [-1, 2]) == rational([-1], [1, -2])
    with pytest.raises(ZeroDivisionError):
        rational([1], [])
    with pytest.raises(ValueError):
        rational([1], [0, 1])


def test_rational_add_sub():
    f = rational([1], [1, 0, -4])
    g = rational([0, 2], [1, 0, -4])
    assert f + g == geometric(2)
    assert f + ZERO == f
    assert geometric(2) - geometric(2) == ZERO
    assert (f - f).is_zero()


def test_series_examples():
    assert rational([1], [1, 0, 0, 0, -16]).series(5) == [1, 0, 0, 0, 16, 0]
    for n in (1, 2, 3):
        assert geometric(n).series(3) == [1, n, n**2, n**3]
    assert rational([0, 2], [1, 0, 0, 0, -16]).series(5) == [0, 2, 0, 0, 0, 32]


def test_genfunc_golden(fig1_graph, mod2_graph):
    assert genfunc(fig1_graph, 1) == rational([1], [1, 0, 0, 0, -16])
    assert genfunc(fig1_graph, 2) == rational([0, 2], [1, 0, 0, 0, -16])
    assert genfunc(mod2_graph, 1) == rational([1], [1, 0, -4])
    # cross-checked against raw word counts 1, 0, 4, 0, 16
    assert genfunc(mod2_graph, 1).series(4) == [1, 0, 4, 0, 16]


def test_series_from_matrix_examples(fig1_graph, mod2_graph):
    assert series_from_matrix(fig1_graph, 1, 1, 4) == [1, 0, 0, 0, 16]
    from cosetpart.schreier import from_permutations

    assert series_from_matrix(from_permutations(2, [(1,), (1,)]), 1, 1, 3) == [1, 2, 4, 8]
    assert series_from_matrix(mod2_graph, 1, 1, 4) == [1, 0, 4, 0, 16]


def assert_genfunc_equals_matrix_powers(graph, start, depth):
    """genfunc on the graph re-based at s is e_s (I - zA)^(-1) e_t at
    every end t,
    proved from depth + 1 >= 2d series terms.

    By Cramer's rule the right side is C/q, where C is a signed minor of
    I - zA of size d - 1, so deg C < d, and q = det(I - zA) has deg q <= d
    and q(0) = 1; this holds for every square matrix.  The normal form N/D
    is asserted to satisfy the same bounds: deg N < d, deg D <= d and
    D(0) = 1.  Both denominators are units in the power series ring, so
    series agreeing to 2d terms give N q - C D = 0 mod z^(2d).  That
    polynomial has degree < 2d, hence it is zero and N/D = C/q.  The
    matrix side is series_from_matrix's, its powers e_s A^k built once
    for all ends."""
    d = graph.d
    assert depth >= 2 * d - 1
    rows = _matrix_power_rows(graph, start, depth)
    for end in range(1, d + 1):
        f = genfunc(rebased(graph, start), end)
        assert f.num.degree < d and f.den.degree <= d and f.den.coeffs[0] == 1, (start, end)
        assert f.series(depth) == [row[end - 1] for row in rows], (start, end)


def test_genfunc_equals_matrix_powers_everywhere(graph_family):
    for graph in graph_family.values():
        for start in range(1, graph.d + 1):
            assert_genfunc_equals_matrix_powers(graph, start, 20)


@pytest.mark.parametrize("d, seed, want_period", [(8, 1, 1), (16, 2, 2), (24, 3, 1)])
def test_genfunc_equals_matrix_powers_on_random_graphs(random_graph, d, seed, want_period):
    graph = random_graph(d, seed, want_period)
    for start in range(1, d + 1):
        assert_genfunc_equals_matrix_powers(graph, start, 2 * d)


def test_row_sum_identity(graph_family):
    # the cosets of one subgroup partition the group, so each row of
    # generating functions sums to the full-group series
    for graph in graph_family.values():
        n = graph.rank
        for start in range(1, graph.d + 1):
            total = ZERO
            for end in range(1, graph.d + 1):
                total = total + genfunc(rebased(graph, start), end)
            assert total == geometric(n)


def test_common_denominator_property(graph_family):
    for graph in graph_family.values():
        dens = {
            genfunc(rebased(graph, i), j).den
            for i in range(1, graph.d + 1)
            for j in range(1, graph.d + 1)
        }
        assert len(dens) == 1


def test_pole_rotations_divide_denominator(graph_family):
    for graph in graph_family.values():
        n = graph.rank
        h = period(graph)
        rotations = IntPolynomial([1] + [0] * (h - 1) + [-(n**h)])
        for end in range(1, graph.d + 1):
            assert divides(rotations, genfunc(graph, end).den)


def test_numerator_degree_below_zero_multiplicity_bound(graph_family):
    # the degree of p as a rational function is less than the algebraic
    # multiplicity of the zero eigenvalue
    for graph in graph_family.values():
        cd = char_data(graph)
        for end in range(1, graph.d + 1):
            f = genfunc(graph, end)
            assert f.num.degree - f.den.degree < cd.zero_multiplicity


def _genfunc_by_per_end_walk(graph, start, end):
    """(q * s) mod z^d over q, with s the walk counts to end alone."""
    q = char_data(graph).reciprocal_charpoly
    s = walk_counts(graph, start, (end,), graph.d - 1)
    num = [
        sum(c * s[k - j] for j, c in enumerate(q.coeffs[: k + 1]))
        for k in range(graph.d)
    ]
    return RationalFunction(IntPolynomial(num), q)


def test_genfunc_matches_per_end_walk_on_zoo(graph_family):
    for graph in graph_family.values():
        for start in range(1, graph.d + 1):
            for end in range(1, graph.d + 1):
                want = _genfunc_by_per_end_walk(graph, start, end)
                assert genfunc(rebased(graph, start), end) == want, (start, end)


@pytest.mark.parametrize("d, seed, want_period", [(16, 1, 1), (16, 2, 2), (24, 1, 1), (24, 3, 2)])
def test_genfunc_matches_per_end_walk_on_random_graphs(random_graph, d, seed, want_period):
    graph = random_graph(d, seed, want_period)
    for start in (1, d):
        for end in range(1, d + 1):
            want = _genfunc_by_per_end_walk(graph, start, end)
            assert genfunc(rebased(graph, start), end) == want, (start, end)


def test_genfunc_walks_once_per_graph(random_graph):
    """Every end of one graph reads one walk table; the same action
    re-based at another vertex is another graph and walks once more, so
    the cache key holds the basepoint."""
    graph = random_graph(20, 9)
    misses = _numerators.cache_info().misses
    for end in range(1, graph.d + 1):
        genfunc(graph, end)
    assert _numerators.cache_info().misses == misses + 1
    moved = rebased(graph, graph.d)
    for end in range(1, graph.d + 1):
        genfunc(moved, end)
    assert _numerators.cache_info().misses == misses + 2


def test_caches_are_bounded():
    for cached in (
        genfunc,
        _numerators,
        char_data,
        period,
        cyclotomic,
    ):
        assert cached.cache_info().maxsize is not None


def test_genfunc_rejects_bad_vertices(fig1_graph):
    with pytest.raises(ValueError):
        genfunc(fig1_graph, 0)
    with pytest.raises(ValueError):
        genfunc(fig1_graph, 5)


def _count_gcdheu_paths(monkeypatch):
    """Counters of GCDHEU runs and of the balanced-digit readings they
    make: a run that reads no digits settled coprimality at its first
    point."""
    counts = {"gcdheu": 0, "digits": 0}
    gcdheu, balanced_digits = poly._gcdheu, poly._balanced_digits

    def counted_gcdheu(a, b):
        counts["gcdheu"] += 1
        return gcdheu(a, b)

    def counted_digits(gamma, xi):
        counts["digits"] += 1
        return balanced_digits(gamma, xi)

    monkeypatch.setattr(poly, "_gcdheu", counted_gcdheu)
    monkeypatch.setattr(poly, "_balanced_digits", counted_digits)
    return counts


def test_genfunc_normal_forms_and_the_one_point_certificate(
    graph_family, random_graph, monkeypatch
):
    """Every genfunc is RationalFunction(N, q) for its column N of the walk
    table.  Where poly_gcd(N, q) settles coprimality at GCDHEU's first
    point, with no digits read, N and q really are coprime (PRS
    reference); both that branch and the digit-reading one occur."""
    counts = _count_gcdheu_paths(monkeypatch)
    drawn = [(12, 1, 1), (16, 2, 1), (24, 3, 1), (12, 1, 2), (16, 4, 2), (9, 1, 3), (18, 2, 3)]
    graphs = list(graph_family.values()) + [random_graph(*key) for key in drawn]
    outcomes = set()
    for graph in graphs:
        for start in range(1, graph.d + 1):
            moved = rebased(graph, start)
            q, table = _numerators(moved)
            for end in range(1, graph.d + 1):
                num = IntPolynomial(table[end - 1])
                f = genfunc(moved, end)
                assert type(f) is RationalFunction
                assert f == RationalFunction(num, q), (graph, start, end)
                counts["gcdheu"] = counts["digits"] = 0
                g = poly_gcd(num, q)
                assert g == poly_gcd_by_prs(num, q), (graph, start, end)
                if counts["gcdheu"]:
                    certified = counts["digits"] == 0
                    if certified:
                        assert g == IntPolynomial([1]), (graph, start, end)
                    outcomes.add(certified)
    assert outcomes == {True, False}


def _random_poly(rng, degree, bound, constant=None):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    if constant is not None:
        coeffs[0] = constant
    if degree and not coeffs[-1]:
        coeffs[-1] = bound
    return IntPolynomial(coeffs)


def test_certificate_rejects_every_common_factor(monkeypatch):
    """N = f g and q = f h with f(0) = h(0) = 1 and deg f >= 1 share f, so
    GCDHEU's one-point certificate must never accept them, whichever of
    the two norms is the smaller and however large the coefficients: the
    first point reads digits, and the gcd found has positive degree."""
    rng = random.Random(20)
    bounds = (1, 2, 5, 100, 2**40)
    pairs = [
        (IntPolynomial([1, 1]), IntPolynomial([1, -1, -2])),  # f = 1 + z
        (IntPolynomial([1, -2]), IntPolynomial([1, -4, 4])),  # f = 1 - 2z
    ]
    # f = 1 - a z + z^2 has a root near a: its value at a point below the
    # bound on the roots can be tiny (f(4) = 1 for a = 4)
    for a in range(2, 70):
        f = IntPolynomial([1, -a, 1])
        pairs += [(f, f * IntPolynomial([1, 2])), (f * IntPolynomial([3, 1]), f)]
    for _ in range(400):
        f = _random_poly(rng, rng.randint(1, 4), rng.choice(bounds), constant=1)
        g = _random_poly(rng, rng.randint(0, 5), rng.choice(bounds))
        h = _random_poly(rng, rng.randint(0, 5), rng.choice(bounds), constant=1)
        if g:
            pairs.append((f * g, f * h))
    counts = _count_gcdheu_paths(monkeypatch)
    for num, q in pairs:
        counts["digits"] = 0
        g = poly_gcd(num, q)
        assert g.degree >= 1 and g == poly_gcd_by_prs(num, q), (num, q)
        assert counts["digits"] >= 1, (num, q)
