import random

import numpy as np
import pytest

from cosetpart.oracle import reciprocal_charpoly_by_faddeev
from cosetpart.poly import IntPolynomial
from cosetpart.schreier import from_permutations
from cosetpart.spectral import char_data, is_irreducible, period, transition_matrix


def laplace_det_i_minus_za(matrix):
    """Independent route for q(z): cofactor expansion of det(I - zA) over
    polynomial entries.  Exponential, for d <= 5 only."""
    d = len(matrix)
    entries = [
        [
            IntPolynomial([1 if i == j else 0, -matrix[i][j]])
            for j in range(d)
        ]
        for i in range(d)
    ]

    def det(rows, cols):
        if not rows:
            return IntPolynomial([1])
        i = rows[0]
        total = IntPolynomial()
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = entries[i][j] * minor
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return det(tuple(range(d)), tuple(range(d)))


def test_transition_matrix_examples(fig1_graph, mod2_graph):
    assert transition_matrix(fig1_graph) == (
        (0, 2, 0, 0),
        (0, 0, 2, 0),
        (0, 0, 0, 2),
        (2, 0, 0, 0),
    )
    assert transition_matrix(from_permutations(2, [(1,), (1,)])) == ((2,),)
    assert transition_matrix(mod2_graph) == ((0, 2), (2, 0))


def test_period_examples(fig1_graph, mod2_graph):
    assert period(fig1_graph) == 4
    assert period(from_permutations(2, [(1,), (1,)])) == 1
    assert period(mod2_graph) == 2


def test_char_data_examples(fig1_graph, mod2_graph):
    cd = char_data(transition_matrix(fig1_graph))
    assert cd.reciprocal_charpoly == IntPolynomial([1, 0, 0, 0, -16])
    assert cd.period == 4
    assert cd.zero_multiplicity == 0
    for n in (0, 1, 2, 3):
        cd = char_data(((n,),))
        assert cd.reciprocal_charpoly == IntPolynomial([1, -n])
    cd = char_data(transition_matrix(mod2_graph))
    assert cd.reciprocal_charpoly == IntPolynomial([1, 0, -4])


def test_is_irreducible():
    assert is_irreducible(transition_matrix_from([(0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (2, 0, 0, 0)]))
    assert not is_irreducible(((1, 0), (0, 1)))
    assert is_irreducible(((0, 1), (1, 0)))


def transition_matrix_from(rows):
    return tuple(tuple(r) for r in rows)


def test_char_data_rejects_reducible():
    with pytest.raises(ValueError):
        char_data(((1, 0), (0, 1)))


def test_row_and_column_sums(graph_family):
    for graph in graph_family.values():
        matrix = transition_matrix(graph)
        n = graph.rank
        for row in matrix:
            assert sum(row) == n
        for j in range(graph.d):
            assert sum(matrix[i][j] for i in range(graph.d)) == n
        assert is_irreducible(matrix)


def test_charpoly_matches_laplace_cofactors(graph_family):
    for graph in graph_family.values():
        if graph.d > 5:
            continue
        matrix = transition_matrix(graph)
        assert char_data(matrix).reciprocal_charpoly == laplace_det_i_minus_za(matrix)


def test_spectral_divisibility(graph_family):
    for graph in graph_family.values():
        n = graph.rank
        cd = char_data(transition_matrix(graph))
        q = cd.reciprocal_charpoly
        h = cd.period
        assert q.coeffs[0] == 1
        assert IntPolynomial([1, -n]).divides(q)
        assert IntPolynomial([1] + [0] * (h - 1) + [-(n**h)]).divides(q)
        assert cd.zero_multiplicity + q.degree == graph.d


def test_divisibility_over_corpus(corpus):
    for spec in corpus.values():
        n = spec.rank
        for member in {m.graph for m in spec.members}:
            cd = char_data(transition_matrix(member))
            q, h = cd.reciprocal_charpoly, cd.period
            assert IntPolynomial([1, -n]).divides(q)
            assert IntPolynomial([1] + [0] * (h - 1) + [-(n**h)]).divides(q)
            assert cd.zero_multiplicity + q.degree == member.d


def test_period_agrees_with_cycle_oracle(graph_family, corpus):
    from cosetpart.oracle import period_by_cycles

    graphs = [g for g in graph_family.values() if g.d <= 8]
    for spec in corpus.values():
        graphs.extend(m.graph for m in spec.members if m.graph.d <= 8)
    for graph in graphs:
        assert period_by_cycles(graph) == period(graph)


def test_no_root_inside_radius(graph_family):
    # numeric advisory check: 1/n is the pole of minimal absolute value
    for graph in graph_family.values():
        q = char_data(transition_matrix(graph)).reciprocal_charpoly
        roots = np.roots(list(reversed(q.coeffs)))
        assert min(abs(roots)) >= 1 / graph.rank - 1e-9


def _irreducible_matrices(seed: int, count: int):
    """Random irreducible nonnegative matrices of order 2..8 with entries
    0..4, not row-stochastic up to scale: row sums differ.  Every other one
    repeats a row, so 0 is an eigenvalue and deg q < d."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 8)
        rows = [[rng.choice((0, 0, 1, 2, 4)) for _ in range(d)] for _ in range(d)]
        if len(out) % 2:
            rows[-1] = list(rows[0])
        matrix = tuple(map(tuple, rows))
        if len({sum(r) for r in matrix}) > 1 and is_irreducible(matrix):
            out.append(matrix)
    return out


def _reference_matrices(graph_family, random_graph):
    graphs = list(graph_family.values())
    graphs += [random_graph(d, 1, h) for d in (16, 24, 32, 80) for h in (1, 2)]
    # rank 3, two equal letters: entries 2, and 3 where c agrees with a
    graphs.append(from_permutations(3, [(2, 3, 4, 5, 6, 7, 1)] * 2 + [(2, 1, 3, 5, 4, 7, 6)]))
    matrices = [transition_matrix(g) for g in graphs]
    matrices += _irreducible_matrices(5, 40)
    matrices += [((n,),) for n in (0, 1, 2, 3, 7)]
    # e J: (A^d)_ij = e^d d^(d-1), a factor d below the bound r^d = (e d)^d
    matrices += [((e,) * d,) * d for d in (2, 5, 12, 40) for e in (1, 3)]
    return matrices


def test_charpoly_matches_faddeev_reference(graph_family, random_graph):
    matrices = _reference_matrices(graph_family, random_graph)
    assert any(len({sum(r) for r in m}) > 1 for m in matrices)
    degree_drops = 0
    for matrix in matrices:
        q = char_data(matrix).reciprocal_charpoly
        assert q == reciprocal_charpoly_by_faddeev(matrix), matrix
        degree_drops += q.degree < len(matrix)
    assert degree_drops >= 20


def test_faddeev_reference_matches_laplace_cofactors():
    for matrix in _irreducible_matrices(6, 30):
        if len(matrix) <= 5:
            assert reciprocal_charpoly_by_faddeev(matrix) == laplace_det_i_minus_za(matrix)
